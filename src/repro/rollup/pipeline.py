"""Checkpoint pipeline: engine epochs settled as one transaction each.

Glue between the three layers the rollup spans:

* the **engine** (:class:`~repro.engine.scheduler.EpochScheduler` in
  checkpoint mode) produces an epoch's proofs and the grouped batch
  verdict off chain,
* the **rollup** (:mod:`~repro.rollup.checkpoint`) canonicalizes the
  outcome into a verdict tree and an 85-byte commitment,
* the **chain** (:class:`~repro.chain.contracts.checkpoint_contract.CheckpointContract`)
  records the commitment under a bonded fraud-proof window.

The pipeline plays the *aggregator* role: it posts commitments from its
own funded account through a :class:`LaneSettler` — the one place any
caller (this pipeline, the cross-shard aggregator's per-lane pipelines,
the lifecycle engine, the CLI's fraud demos) puts settlement
transactions on a lane — retains every epoch's
:class:`~.checkpoint.CheckpointBundle` (the data-availability obligation —
leaves must be servable to challengers and light clients), and exposes the
per-epoch on-chain receipts so callers can compare measured bytes/gas
against the per-round path.

With ``da_params`` set, the pipeline additionally erasure-codes each
settled epoch's leaf set into a :class:`~repro.da.commit.DaBundle`
(namespace = lane‖epoch) and posts the 119-byte DA commitment alongside
the checkpoint, turning the availability obligation into something light
clients can *sample* instead of trusting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..chain.blockchain import Blockchain
from ..chain.transaction import Receipt, Transaction
from .checkpoint import CheckpointBundle


class EpochNotSettled(KeyError):
    """Lookup of an epoch this pipeline/aggregator never settled.

    Subclasses :class:`KeyError` so long-standing ``except KeyError``
    callers keep working, but carries the epoch as structured data and —
    unlike a bare KeyError, whose ``str()`` wraps the message in quotes —
    renders its message verbatim for RPC/CLI surfaces.
    """

    code = "epoch-not-settled"

    def __init__(self, epoch: int, role: str = "pipeline"):
        super().__init__(f"epoch {epoch} not settled by this {role}")
        self.epoch = epoch
        self.role = role

    def __str__(self) -> str:
        return self.args[0]


@dataclass
class SettledEpoch:
    """One epoch's engine result, bundle, and settlement receipt."""

    epoch: int
    result: object                 # engine EpochResult (duck-typed)
    bundle: CheckpointBundle
    checkpoint_id: int
    receipt: Receipt
    da: object | None = field(default=None)   # DaBundle when DA is enabled
    da_receipt: Receipt | None = field(default=None)


class LaneSettler:
    """Posts one lane's settlement transactions — the only code that does.

    Registers audit instances idempotently against the contract's own
    ``instances`` registry, posts bonded checkpoints and, with
    ``da_params`` set, builds and posts each epoch's DA commitment.  The
    one injected dependency is ``transact(tx, payload_bytes) -> Receipt``:
    the lane chain's own ``transact`` by default; the lifecycle engine
    routes it through the lane's fee-market mempool instead.
    """

    def __init__(
        self,
        chain,
        contract_address: str,
        account: str,
        lane_id: int = 0,
        da_params=None,
        transact=None,
    ):
        self.chain = chain
        self.contract_address = contract_address
        self.account = account
        self.lane_id = lane_id
        self.da_params = da_params
        self._transact = transact

    @property
    def contract(self):
        # Imported here, not at module level: checkpoint_contract imports
        # rollup.checkpoint, so a top-level import would be circular.
        from ..chain.contracts.checkpoint_contract import CheckpointContract

        contract = self.chain.contract_at(self.contract_address)
        assert isinstance(contract, CheckpointContract)
        return contract

    def _send(self, method: str, args: tuple, payload_bytes: int,
              value: int = 0) -> Receipt:
        tx = Transaction(sender=self.account, to=self.contract_address,
                         method=method, args=args, value=value)
        # Resolved per call so class-level instrumentation of
        # ``Blockchain.transact`` sees settlement traffic.
        receipt = (self._transact or self.chain.transact)(tx, payload_bytes)
        if not receipt.success:
            raise RuntimeError(f"lane {self.lane_id} {method} failed: {receipt.error}")
        return receipt

    def register(self, instance) -> Receipt | None:
        """Register an audit instance once; ``None`` if already on chain."""
        if instance.name in self.contract.instances:
            return None
        pk_bytes = instance.public.to_bytes()
        return self._send("register_instance",
                          (instance.name, pk_bytes, instance.num_chunks),
                          len(pk_bytes) + 36)

    def post_checkpoint(self, checkpoint) -> Receipt:
        """Post one commitment under the contract's bond."""
        data = checkpoint.to_bytes()
        return self._send("post_checkpoint", (data,), len(data),
                          value=self.contract.posting_bond_wei)

    def post_da_root(self, checkpoint_id: int, bundle: CheckpointBundle):
        """Erasure-code ``bundle`` and bind its DA root: ``(DaBundle, receipt)``."""
        from ..da.commit import build_da_bundle

        da_bundle = build_da_bundle(
            self.lane_id, bundle.checkpoint.epoch, bundle, self.da_params
        )
        data = da_bundle.commitment.to_bytes()
        return da_bundle, self._send("post_da_root", (checkpoint_id, data), len(data))

    def post(self, bundle: CheckpointBundle):
        """Settle one epoch: ``(receipt, da_bundle, da_receipt)``.

        The DA pair is ``(None, None)`` without ``da_params``.
        """
        receipt = self.post_checkpoint(bundle.checkpoint)
        if self.da_params is None:
            return receipt, None, None
        return (receipt, *self.post_da_root(receipt.return_value, bundle))


class CheckpointPipeline:
    """Runs engine epochs and settles each through a :class:`LaneSettler`."""

    def __init__(
        self,
        scheduler,
        chain: Blockchain,
        contract_address: str,
        aggregator_account: str,
        da_params=None,
        lane_id: int = 0,
    ):
        if not getattr(scheduler, "checkpoint_mode", False):
            raise ValueError(
                "scheduler must be constructed with checkpoint_mode=True"
            )
        self.scheduler = scheduler
        self.chain = chain
        self.contract_address = contract_address
        self.aggregator = aggregator_account
        self.settler = LaneSettler(
            chain, contract_address, aggregator_account,
            lane_id=lane_id, da_params=da_params,
        )
        self.settled: list[SettledEpoch] = []
        # Settled epochs indexed by number: lookups used to linear-scan
        # `settled` and leak bare KeyErrors; the index keeps serving O(1)
        # as histories grow and the structured error names the miss.
        self._by_epoch: dict[int, int] = {}

    @property
    def contract(self):
        return self.settler.contract

    def register_fleet(self) -> None:
        """Push every scheduled instance's metadata into the on-chain registry.

        Honors the scheduler's instance subset (``names``), so a per-lane
        pipeline registers only the files its lane settles.
        """
        names = getattr(self.scheduler, "names", None)
        for instance in self.scheduler.executor.instances.values():
            if names is None or instance.name in names:
                self.settler.register(instance)

    def settle_epoch(self, epoch: int) -> SettledEpoch:
        """Run one engine epoch and post its commitment on chain."""
        result = self.scheduler.run_epoch(epoch)
        bundle = result.checkpoint
        assert bundle is not None, "checkpoint_mode scheduler returns a bundle"
        receipt, da_bundle, da_receipt = self.settler.post(bundle)
        settled = SettledEpoch(
            epoch=epoch,
            result=result,
            bundle=bundle,
            checkpoint_id=receipt.return_value,
            receipt=receipt,
            da=da_bundle,
            da_receipt=da_receipt,
        )
        self._by_epoch[epoch] = len(self.settled)
        self.settled.append(settled)
        return settled

    def run(self, epochs: int, start_epoch: int = 0) -> list[SettledEpoch]:
        return [self.settle_epoch(start_epoch + i) for i in range(epochs)]

    def settled_for_epoch(self, epoch: int) -> SettledEpoch:
        """One settled epoch by number, or a structured miss."""
        index = self._by_epoch.get(epoch)
        if index is None:
            raise EpochNotSettled(epoch)
        return self.settled[index]

    def bundle_for_epoch(self, epoch: int) -> CheckpointBundle:
        """Serve the data-availability bundle for one settled epoch."""
        return self.settled_for_epoch(epoch).bundle

    def da_bundle_for_epoch(self, epoch: int):
        """Serve the erasure-coded DA bundle for one settled epoch.

        Raises :class:`EpochNotSettled` for unknown epochs and
        :class:`ValueError` when the pipeline runs without DA enabled.
        """
        settled = self.settled_for_epoch(epoch)
        if settled.da is None:
            raise ValueError(
                "pipeline settled this epoch without DA (da_params unset)"
            )
        return settled.da
