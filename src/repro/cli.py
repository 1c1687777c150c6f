"""Command-line interface: the library's functionality as a tool.

    python -m repro keygen   --s 50 --out keys.bin
    python -m repro prepare  --file archive.bin --s 10 --k 8
    python -m repro audit    --size 20000 --rounds 3
    python -m repro engine   --owners 4 --files 4 --epochs 2
    python -m repro engine --lanes 2                          # per-lane epochs
    python -m repro checkpoint --owners 4 --files 4 --epochs 2  # epoch rollup
    python -m repro checkpoint --fraud                        # + fraud proof
    python -m repro checkpoint --lanes 2                      # sharded rollup
    python -m repro shard --lanes 4 --fleet 16 --epochs 2     # chain fabric
    python -m repro shard --lanes 2 --persist ./chainstate    # + WAL stores
    python -m repro attack   --s 6 --k 4                      # privacy attack
    python -m repro attack --strategy selective --rho 0.25    # byzantine provider
    python -m repro attack --strategy replay --onchain        # dispute + slashing
    python -m repro lifecycle --years 2 --churn 0.2 --lanes 2 # years of churn
    python -m repro lifecycle --persist ./lifecycle --resume  # crash + reopen
    python -m repro congest --storm --lanes 4 --blocks 12     # fee-market storm
    python -m repro congest --storm --griefer --lanes 2       # + fee griefing
    python -m repro serve --lanes 2 --port 8645               # JSON-RPC service
    python -m repro serve --concurrent --probe                # CI smoke probe
    python -m repro da-sample --lanes 2 --withhold 0.25       # DA sampling demo
    python -m repro da-sample --fraud                         # + counts slash
    python -m repro models   --users 5000

Everything runs locally against the simulated substrates; the tool exists
so a downstream user can poke at the system without writing code.
"""

from __future__ import annotations

import argparse
import random
import sys
from contextlib import contextmanager
from dataclasses import dataclass, replace

from .chain import (
    Blockchain,
    ContractTerms,
    CostModel,
    deploy_audit_contract,
    run_contract_to_completion,
)
from .core import DataOwner, ProtocolParams, StorageProvider, generate_keypair
from .randomness import HashChainBeacon
from .sim.economics import one_time_storage_cost, usd_per_audit
from .sim.throughput import ChainCapacityModel, ProviderLoadModel


def _cmd_keygen(args: argparse.Namespace) -> int:
    keypair = generate_keypair(args.s, private_auditing=not args.no_privacy)
    blob = keypair.public.to_bytes()
    if args.out:
        with open(args.out, "wb") as handle:
            handle.write(blob)
        print(f"public key ({len(blob):,} B) written to {args.out}")
    print(f"s = {args.s}, on-chain pk footprint = {keypair.public.byte_size():,} B")
    print(f"one-time recording cost ~ ${one_time_storage_cost(args.s)['usd']:.2f}")
    return 0


def _cmd_prepare(args: argparse.Namespace) -> int:
    with open(args.file, "rb") as handle:
        data = handle.read()
    params = ProtocolParams(s=args.s, k=args.k)
    owner = DataOwner(params)
    package = owner.prepare(data)
    overhead = 32 * package.num_chunks
    print(f"file: {len(data):,} B -> {package.num_chunks} chunks (s={args.s})")
    print(f"authenticators: {overhead:,} B ({overhead/len(data):.1%} of data)")
    print(f"public key: {package.public.byte_size():,} B on chain")
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    rng = random.Random(args.seed)
    params = ProtocolParams(s=args.s, k=args.k)
    owner = DataOwner(params, rng=rng)
    package = owner.prepare(bytes(rng.randrange(256) for _ in range(args.size)))
    provider = StorageProvider(rng=rng)
    if not provider.accept(package):
        print("provider rejected the package", file=sys.stderr)
        return 1
    chain = Blockchain()
    terms = ContractTerms(
        num_audits=args.rounds, audit_interval=60.0, response_window=20.0
    )
    deployment = deploy_audit_contract(
        chain, package, provider, terms, HashChainBeacon(b"cli"), params
    )
    if args.drop_after is not None:
        deployment.provider_agent.misbehave_after_round = args.drop_after
    contract = run_contract_to_completion(chain, deployment)
    cost = CostModel()
    print(f"contract closed: {contract.passes} passes, {contract.fails} fails")
    for record in contract.rounds:
        reason = f" [{record.reject_reason}]" if record.reject_reason else ""
        print(
            f"  round {record.round_id}: {'PASS' if record.passed else 'FAIL'}"
            f"{reason} gas={record.gas_used:,} "
            f"(${cost.gas_to_usd(record.gas_used):.2f})"
        )
    return 0 if contract.fails == (0 if args.drop_after is None else contract.fails) else 1


def _fleet(params, rng, size: int, files: int, owners) -> list:
    """``files`` audit instances per owner id; file ``i`` holds the
    archive tagged ``{owner}-{i}``.

    Each owner generates one keypair (with its first file) and reuses it.
    """
    from .engine import AuditInstance
    from .sim.workloads import archive_file

    instances = []
    for owner_id in owners:
        owner = DataOwner(params, rng=rng)
        for index in range(files):
            package = owner.prepare(
                archive_file(size, tag=f"{owner_id}-{index}").data,
                fresh_keypair=index == 0,
            )
            instances.append(AuditInstance.from_package(package, owner_id))
    return instances


@dataclass
class _Service:
    """What :func:`_settling_fabric` stands up; the RPC parts only when hosted."""

    fabric: object
    aggregator: object
    registry: object = None
    node: object = None
    dispatcher: object = None
    server: object = None


@contextmanager
def _settling_fabric(instances, params, rng, tag: str, lanes: int, *,
                     workers: int = 1, crypto_cache=None,
                     concurrent: bool = False, tracer=None, da_params=None,
                     persist=None, host=None, port: int = 0):
    """A chain fabric settling ``instances`` through one cross-shard aggregator.

    Shared by every command that settles epochs: ``checkpoint``/``shard``
    (``persist`` = WAL-backed lanes) and the hosted ``serve``, ``top
    --demo`` and ``da-sample``.  With ``host`` set the lanes take ingress
    through fee-market mempools and a :class:`~repro.rpc.ServiceNode` is
    bound to a JSON-RPC socket, not yet serving: callers settle first,
    then ``server.serve_in_thread()``.  One ``finally`` tears everything
    down: auto-miner, server, aggregator, executor, fabric.
    """
    from .chain.fabric import ShardedChainFabric
    from .chain.mempool import MempoolConfig
    from .engine import AuditExecutor
    from .obs import get_registry, register_core_instruments
    from .rollup import CrossShardAggregator
    from .rpc import RpcDispatcher, RpcTcpServer, ServiceNode

    hosted = host is not None
    fabric = ShardedChainFabric(
        num_lanes=lanes,
        persist_dir=persist,
        mempool=MempoolConfig() if hosted else None,
        concurrent=concurrent,
    )
    executor = AuditExecutor(instances, workers=workers, cache_dir=crypto_cache)
    aggregator = CrossShardAggregator(
        fabric, executor, params, HashChainBeacon(b"cli-" + tag.encode()),
        rng=rng, concurrent_lanes=concurrent, pooled_verify=workers != 1,
        tracer=tracer, da_params=da_params,
    )
    service = _Service(fabric, aggregator)
    if hosted:
        # The service hosts the process-wide registry: every layer below
        # (mempool, fabric, engine) records into it by default.
        service.registry = get_registry()
        register_core_instruments(service.registry)
        fabric.attach_gauges(service.registry)
        service.node = ServiceNode(fabric, aggregator=aggregator)
        service.dispatcher = RpcDispatcher(
            registry=service.registry, tracer=aggregator.tracer
        )
        service.node.register_on(service.dispatcher)
        service.server = RpcTcpServer(service.dispatcher, host=host, port=port)
    try:
        yield service
    finally:
        if hosted:
            service.node.stop_auto_mine()
            service.server.close()
        aggregator.close()
        executor.close()
        fabric.close()


def _cmd_engine(args: argparse.Namespace) -> int:
    """Run the parallel audit engine over an owners x files fleet."""
    import time

    from .chain.fabric import lane_index_for_key
    from .engine import AuditExecutor, EpochScheduler

    if args.lanes < 1:
        print("engine: --lanes must be >= 1", file=sys.stderr)
        return 2
    rng = random.Random(args.seed)
    params = ProtocolParams(s=args.s, k=args.k)
    print(
        f"fleet: {args.owners} owners x {args.files} files "
        f"({args.owners * args.files} audit instances), s={args.s}, k={args.k}"
    )
    t0 = time.perf_counter()
    instances = _fleet(params, rng, args.size, args.files,
                       [f"owner-{o}" for o in range(args.owners)])
    print(f"fleet prepared in {time.perf_counter() - t0:.1f} s")
    slices: dict[int, set[int]] = {}
    for instance in instances:
        lane = lane_index_for_key(instance.name, args.lanes)
        slices.setdefault(lane, set()).add(instance.name)
    ok = True
    with AuditExecutor(
        instances, workers=args.workers, cache_dir=args.crypto_cache
    ) as executor:
        # One scheduler per fabric lane over the shared process pool: each
        # drives its deterministic slice of the fleet.
        beacon = HashChainBeacon(b"cli-engine")
        schedulers = {
            lane: EpochScheduler(executor, params, beacon, rng=rng, names=names)
            for lane, names in sorted(slices.items())
        }
        print(f"workers: {executor.workers}, lanes: {args.lanes} "
              f"({', '.join(str(len(n)) for _, n in sorted(slices.items()))}"
              f" audits)")
        for epoch in range(args.epochs):
            for lane, scheduler in schedulers.items():
                result = scheduler.run_epoch(epoch)
                ok = ok and bool(result.batch_ok)
                print(
                    f"epoch {epoch} lane {lane}: {result.num_audits} audits, "
                    f"prove {result.prove_seconds:.2f} s + "
                    f"batch-verify {result.verify_seconds:.2f} s "
                    f"-> {result.audits_per_second:.1f} audits/s, "
                    f"batch {'OK' if result.batch_ok else 'FAILED'}"
                )
    return 0 if ok else 1


def _cmd_checkpoint(args: argparse.Namespace) -> int:
    """Epoch rollup: settle a fleet's audits as one commitment per lane-epoch."""
    if min(args.epochs, args.owners, args.files, args.lanes) < 1:
        print("checkpoint: --epochs, --owners, --files and --lanes must be "
              ">= 1", file=sys.stderr)
        return 2
    rng = random.Random(args.seed)
    params = ProtocolParams(s=args.s, k=args.k)
    print(f"fleet: {args.owners} owners x {args.files} files "
          f"({args.owners * args.files} audit instances), "
          f"s={args.s}, k={args.k}")
    instances = _fleet(params, rng, args.size, args.files,
                       [f"owner-{o}" for o in range(args.owners)])
    return _settle(instances, params, rng, "checkpoint", args.lanes,
                   args.epochs, args.workers, fraud=args.fraud)


def _challenge_forgery(pipeline, epoch: int, forge, label="challenger"):
    """Fraud-proof demo shared by every ``--fraud`` flag.

    Runs one extra engine epoch on the lane ``pipeline``, posts the
    commitment ``forge(honest_bundle)`` returns under bond through the
    pipeline's lane settler, funds a challenger and sends its bonded
    challenge.  ``forge`` returns ``(forged_checkpoint, evidence)`` where
    ``evidence(checkpoint_id) -> (method, args, payload_bytes)``.  Returns
    the ``checkpoint_slashed`` event, or ``None`` if the forgery stood.
    """
    from .chain import Transaction

    forged, evidence = forge(pipeline.scheduler.run_epoch(epoch).checkpoint)
    checkpoint_id = pipeline.settler.post_checkpoint(forged).return_value
    method, args, payload_bytes = evidence(checkpoint_id)
    chain = pipeline.chain
    challenger = chain.create_account(1.0, label=label)
    receipt = chain.transact(
        Transaction(
            sender=challenger,
            to=pipeline.contract_address,
            method=method,
            args=(checkpoint_id, *args),
            value=pipeline.contract.challenge_bond_wei,
        ),
        payload_bytes=payload_bytes,
    )
    slashed = [e for e in receipt.events if e.name == "checkpoint_slashed"]
    return slashed[0] if receipt.success and slashed else None


def _flip_first_verdict(honest):
    """Forge one flipped verdict; anyone holding the leaves opens it on chain."""
    from .rollup import build_checkpoint

    records = list(honest.records)
    records[0] = records[0].flipped()
    forged = build_checkpoint(honest.checkpoint.epoch, tuple(records))
    opening = forged.prove(records[0].name)
    evidence = (
        "challenge_leaf",
        (opening.leaf_data, opening.leaf_index, opening.siblings,
         opening.directions),
        len(opening.leaf_data) + 32 * len(opening.siblings),
    )
    return forged.checkpoint, lambda _checkpoint_id: evidence


def _settle(instances, params, rng, tag: str, lanes: int, epochs: int,
            workers: int, persist: str | None = None,
            fraud: bool = False) -> int:
    """Settle a fleet's epochs on a chain fabric: ``checkpoint`` and ``shard``.

    A one-lane fabric is a plain chain.  Every lane posts one checkpoint
    tx per epoch and the fabric rolls them into a super-commitment; the
    light client then checks a leaf → lane-root → fabric-root inclusion
    proof and replays the whole fabric.  Prints the amortization against
    the per-round path, the per-lane gas and the checkpoint event log;
    ``fraud`` slashes a forged lane checkpoint and ``persist`` checks that
    the WAL-backed lanes reopen to the same ``state_hash``.
    """
    from .chain import (
        ChainExplorer,
        CheckpointLightClient,
        ShardedChainFabric,
        audit_the_auditor_fabric,
        checkpoint_amortization,
    )

    print(f"fabric: {lanes} lanes, fleet {len(instances)}"
          + (f", persisted under {persist}" if persist else " (in-memory)"))
    with _settling_fabric(instances, params, rng, tag, lanes,
                          workers=workers, persist=persist) as service:
        fabric, aggregator = service.fabric, service.aggregator
        for settlement in aggregator.run(epochs):
            fabric_ckpt = settlement.fabric.checkpoint
            print(f"epoch {settlement.epoch}: {fabric_ckpt.num_leaves} audits"
                  f" -> {len(settlement.lanes)} lane commitments")
            for lane_id, settled in sorted(settlement.lanes.items()):
                commitment = settled.bundle.checkpoint
                print(f"  lane {lane_id}: {commitment.num_leaves} audits -> "
                      f"1 checkpoint tx ({commitment.byte_size()} B on chain,"
                      f" {commitment.accepted} accepted / "
                      f"{commitment.rejected} rejected, "
                      f"gas {settled.receipt.gas_used:,})")
            print(f"  fabric super-commitment: {fabric_ckpt.byte_size()} B, "
                  f"root {fabric_ckpt.fabric_root.hex()[:16]}…, "
                  f"{fabric_ckpt.accepted} accepted / {fabric_ckpt.rejected} rejected")

        # Any third party verifies one round from the 87-byte commitment.
        client = CheckpointLightClient(
            aggregator.export_instance_registry(), params, aggregator.beacon
        )
        sample = instances[0].name
        first = aggregator.settled[0]
        outcome = client.verify_fabric_inclusion(
            first.fabric.checkpoint, first.fabric.prove(sample)
        )
        print(f"light client: leaf->lane->fabric inclusion of file "
              f"{sample:#x} -> {'OK' if outcome.ok else outcome.reason}")
        replay = audit_the_auditor_fabric(aggregator)
        print(f"light client: replayed {replay.checkpoints_checked} lane "
              f"checkpoints ({replay.rounds_checked} rounds) -> "
              f"{'consistent' if replay.consistent else 'INCONSISTENT'}")

        lane_id = min(aggregator.pipelines)
        amortized = checkpoint_amortization(
            fabric.lane(lane_id).schedule, len(aggregator.lane_names[lane_id])
        )
        print(
            f"per-round path (lane {lane_id}): "
            f"{amortized.per_round_trail_bytes:,} trail B, "
            f"{amortized.per_round_gas:,} gas per epoch; checkpointed: "
            f"{amortized.checkpoint_trail_bytes} B, "
            f"{amortized.checkpoint_gas:,} gas "
            f"({amortized.bytes_reduction:,.0f}x bytes, "
            f"{amortized.gas_reduction:,.0f}x gas)"
        )

        fraud_caught = True
        if fraud:
            # A lying lane aggregator flips one verdict; the fraud proof on
            # that lane's bonded contract slashes it (soundness per lane).
            slashed = _challenge_forgery(
                aggregator.pipelines[lane_id], epochs, _flip_first_verdict
            )
            fraud_caught = slashed is not None
            print(f"fraud proof (lane {lane_id}): forged checkpoint "
                  f"(flipped verdict) "
                  f"{'slashed' if fraud_caught else 'NOT slashed'}"
                  + (f", bounty {slashed.payload['slashed_wei']:,} wei"
                     if fraud_caught else ""))

        explorer = ChainExplorer(fabric)
        print("per-lane gas totals:")
        for summary in explorer.lane_summaries():
            print(f"  lane {summary.lane}: {summary.gas_used:,} gas over "
                  f"{summary.transactions} txs, {summary.chain_bytes:,} chain B, "
                  f"congestion {summary.congestion_seconds:.0f} s")
        print(f"fabric settlement chain-time (slowest lane): "
              f"{fabric.settlement_chain_seconds():.0f} s")
        print("checkpoint log:")
        for event in explorer.checkpoint_log():
            print(f"  {event['name']}: {event['payload']}")
        if persist:
            expected = fabric.state_hash()
            fabric.snapshot()

    persisted_ok = True
    if persist:
        reopened = ShardedChainFabric(num_lanes=lanes, persist_dir=persist)
        persisted_ok = reopened.state_hash() == expected
        reopened.close()
        print(f"state store: snapshot + reopen state_hash "
              f"{'MATCHES' if persisted_ok else 'DIVERGED'} "
              f"({expected[:16]}…)")

    # Every receipt succeeded: the lane settler raises on a failed post.
    return 0 if replay.consistent and fraud_caught and persisted_ok else 1


def _cmd_shard(args: argparse.Namespace) -> int:
    """Sharded chain fabric: lane-partitioned settlement + super-commitment."""
    if args.lanes < 1 or args.fleet < 1 or args.epochs < 1:
        print("shard: --lanes, --fleet and --epochs must be >= 1",
              file=sys.stderr)
        return 2
    rng = random.Random(args.seed)
    params = ProtocolParams(s=args.s, k=args.k)
    instances = _fleet(params, rng, args.size, args.fleet, ["shard"])
    return _settle(instances, params, rng, "shard", args.lanes, args.epochs,
                   args.workers, persist=args.persist or None,
                   fraud=args.fraud)


def _cmd_attack(args: argparse.Namespace) -> int:
    """Adversary entry point: privacy attack or byzantine-provider scenarios."""
    if args.strategy != "privacy":
        return _cmd_attack_byzantine(args)
    from .core import (
        EclipseChallengeFactory,
        InterpolationAttacker,
        transcript_from_plain,
        transcripts_needed,
    )

    rng = random.Random(args.seed)
    params = ProtocolParams(s=args.s, k=args.k)
    owner = DataOwner(params, rng=rng)
    package = owner.prepare(bytes(rng.randrange(256) for _ in range(args.s * 31 * 12)))
    provider = StorageProvider(rng=rng)
    provider.accept(package)
    prover = provider.prover_for(package.name)
    factory = EclipseChallengeFactory(params, rng=rng)
    attacker = InterpolationAttacker(params, package.num_chunks)
    pinned_c1, _ = factory.fresh_set_seeds()
    target = None
    for _ in range(params.k):
        _, c2 = factory.fresh_set_seeds()
        for _ in range(params.s):
            challenge = factory.challenge(pinned_c1, c2)
            proof = prover.respond_plain(challenge)
            attacker.observe(transcript_from_plain(challenge, proof))
            if target is None:
                target = challenge.expand(package.num_chunks).indices
    recovered = attacker.recover_blocks(target)
    hits = 0
    if recovered:
        hits = sum(
            list(package.chunked.chunks[i]) == recovered[i] for i in target
        )
    print(
        f"observed {attacker.transcripts_seen} transcripts "
        f"(s*u = {transcripts_needed(params, params.k)}); "
        f"recovered {hits}/{len(target)} chunks from NON-PRIVATE proofs"
    )
    print("(re-run your deployment with private proofs: recovery drops to 0)")
    return 0


def _cmd_attack_byzantine(args: argparse.Namespace) -> int:
    """Run the adversarial strategy library (docs/SCENARIOS.md)."""
    from .adversary import (
        STRATEGY_KINDS,
        ScenarioRunner,
        StrategySpec,
        measured_detection_rate,
        run_onchain_dispute,
    )
    from .core import ProtocolParams

    params = ProtocolParams(s=args.s, k=args.k)

    if args.onchain:
        if args.strategy == "all":
            print(
                "--onchain drives one strategy per contract; running "
                "'replay' (pass --strategy <kind> for another)\n"
            )
        result = run_onchain_dispute(
            strategy=args.strategy if args.strategy != "all" else "replay",
            rho=args.rho,
            rounds=args.rounds,
            params=params,
            seed=args.seed,
        )
        print("\n".join(result.summary_lines()))
        print("\nchain explorer export:")
        print(result.explorer.export_json())
        slashed = (
            result.collateral_slashed_wei
            or result.stake_before_wei - result.stake_after_wei
        )
        return 0 if result.fails > 0 and slashed > 0 else 1

    kinds = (
        [k for k in STRATEGY_KINDS if k != "honest"]
        if args.strategy == "all"
        else [args.strategy]
    )
    specs = [StrategySpec("honest", count=2)]
    specs += [StrategySpec(kind, rho=args.rho) for kind in kinds]
    runner = ScenarioRunner(specs, params=params, seed=args.seed)
    report = runner.run(epochs=args.epochs)
    print("\n".join(report.summary_lines()))
    if args.strategy in ("selective", "all"):
        chunks = runner.instances[0].num_chunks
        measured, predicted = measured_detection_rate(
            max(chunks, 40), args.rho, params, trials=args.trials, seed=args.seed
        )
        print(
            f"\nselective-storage sampling over {args.trials} trials: "
            f"measured {measured:.3f} vs 1-(1-rho)^c = {predicted:.3f} "
            f"(|delta| = {abs(measured - predicted):.3f})"
        )
    ok = report.zero_false_accepts and report.zero_false_rejects
    print(f"\nzero false accepts: {report.zero_false_accepts}; "
          f"zero false rejects: {report.zero_false_rejects}")
    return 0 if ok else 1


def _cmd_lifecycle(args: argparse.Namespace) -> int:
    """Long-horizon lifecycle simulation: years of churn, repair, eviction."""
    from .lifecycle import LifecycleConfig, LifecycleEngine
    from .sim.throughput import LifecycleCapacityModel

    if args.years <= 0 or args.epochs_per_year < 1:
        print("lifecycle: --years and --epochs-per-year must be positive",
              file=sys.stderr)
        return 2
    persist = args.persist or None
    if args.resume:
        if not persist:
            print("lifecycle: --resume requires --persist DIR", file=sys.stderr)
            return 2
        overrides = {"workers": args.workers}
        if args.crypto_cache:
            overrides["crypto_cache_dir"] = args.crypto_cache
        engine = LifecycleEngine.open(persist, **overrides)
        print(f"resumed from {persist} at epoch {engine.next_epoch}/"
              f"{engine.config.total_epochs}")
    else:
        try:
            config = LifecycleConfig(
                years=args.years,
                epochs_per_year=args.epochs_per_year,
                files=args.files,
                file_bytes=args.size,
                erasure_n=args.shards,
                erasure_k=args.needed,
                providers=args.providers,
                churn=args.churn,
                flake_rate=args.flake,
                hazard=args.hazard,
                lanes=args.lanes,
                seed=args.seed,
                s=args.s,
                k=args.k,
                workers=args.workers,
                persist_dir=persist,
                crypto_cache_dir=args.crypto_cache or None,
            )
            engine = LifecycleEngine(config)
        except ValueError as exc:
            print(f"lifecycle: {exc}", file=sys.stderr)
            return 2
        print(f"lifecycle: {config.files} files x RS({config.erasure_n},"
              f"{config.erasure_k}) over {config.providers} providers, "
              f"{config.total_epochs} epochs (~{config.years:g} years at "
              f"{config.epochs_per_year}/yr), churn {config.churn:.0%}/yr, "
              f"{config.lanes} lanes"
              + (f", persisted under {persist}" if persist else ""))
    while engine.next_epoch <= engine.config.total_epochs:
        summary = engine.run_epoch()
        line = (f"epoch {summary.epoch:3d}: {summary.audits} audits "
                f"({summary.accepted} ok/{summary.rejected} fail), "
                f"+{summary.joined}/-{summary.departed} providers, "
                f"{summary.repaired} repaired, {summary.evicted} evicted, "
                f"gas {summary.commitment_gas:,}")
        if summary.deferred:
            line += f", {summary.deferred} deferred"
        print(line)
    outcome = engine.outcome()
    print(f"\n{outcome.epochs_run} epochs in {outcome.wall_seconds:.1f} s "
          f"({outcome.epochs_per_second:.2f} epochs/s)")
    print(f"event trail: {len(outcome.trail)} events, "
          f"digest {outcome.trail_digest[:16]}…")
    print(f"fabric state_hash: {outcome.state_hash[:16]}…")
    print(f"repairs {outcome.total_repairs}, evictions "
          f"{outcome.total_evictions}, settlement gas "
          f"{outcome.total_commitment_gas:,}")
    slashes = len(outcome.trail.of_kind('slashed'))
    print(f"on-chain slashing records: {slashes} "
          f"(every eviction carries one: "
          f"{slashes >= outcome.total_evictions})")
    floor = min((s.min_healthy_shards for s in outcome.summaries),
                default=engine.config.erasure_n)
    print(f"durability: weakest file never below {floor} healthy shards "
          f"(k = {engine.config.erasure_k}); all files retrievable: "
          f"{outcome.files_intact}")
    model = LifecycleCapacityModel(
        lanes=engine.config.lanes,
        epochs_per_year=engine.config.epochs_per_year,
        churn=engine.config.churn,
        erasure_n=engine.config.erasure_n,
        erasure_k=engine.config.erasure_k,
    )
    projected = model.projected_durability(engine.config.years)
    print(f"model projection over {engine.config.years:g} years: "
          f"P[survive] = {projected:.6f}, chain growth "
          f"{model.cumulative_chain_bytes(engine.config.years, engine.config.files):,} B")
    engine.close()
    return 0 if outcome.files_intact else 1


def _cmd_congest(args: argparse.Namespace) -> int:
    """Fee-market congestion run: storm pooled lanes, report the market."""
    from .adversary import FeeGriefer, detect_fee_griefers
    from .chain.fabric import ShardedChainFabric
    from .chain.mempool import (
        GasSinkContract,
        MempoolConfig,
        MempoolRejection,
        StormTraffic,
    )
    from .sim import CongestionPricingModel

    if args.lanes < 1 or args.blocks < 1 or args.senders < 1:
        print("congest: --lanes, --blocks and --senders must be positive",
              file=sys.stderr)
        return 2
    load = args.load
    if args.storm:
        load = max(load, 2.0)  # the acceptance regime: >= 2x gas target
    config = MempoolConfig()
    market = config.fee_market
    fabric = ShardedChainFabric(num_lanes=args.lanes, mempool=config)
    sinks, storms = [], []
    for lane_id, lane in enumerate(fabric.lanes):
        deployer = lane.create_account(10.0, label=f"congest-deploy-{lane_id}")
        sink = lane.deploy(GasSinkContract(), deployer=deployer)
        senders = [
            lane.create_account(100.0, label=f"congest-sender-{lane_id}-{i}")
            for i in range(args.senders)
        ]
        sinks.append(sink)
        storms.append(
            StormTraffic(sink, senders, seed=args.seed * 1000 + lane_id)
        )
    griefer = None
    if args.griefer:
        lane = fabric.lanes[0]
        account = lane.create_account(50_000.0, label="congest-griefer")
        griefer = FeeGriefer(
            lane, account, sinks[0], gas_share=0.5, aggression=4.0
        )
    gas_target = market.gas_target(fabric.lanes[0].block_gas_limit)
    offered = int(load * gas_target)
    print(f"congestion: {args.lanes} lane(s), offered load {load:g}x gas "
          f"target ({offered:,} gas/block/lane), {args.blocks} storm blocks"
          + (", fee griefer on lane 0" if griefer else ""))

    peaks = [0] * args.lanes
    pool_peak = 0
    pending_integral = 0
    for _ in range(args.blocks):
        if griefer is not None:
            griefer.on_block()
        for lane, storm in zip(fabric.lanes, storms):
            max_fee_gwei, tip_gwei = lane.pool.suggest_fees(args.tip)
            for tx in storm.txs_for_block(
                offered,
                max_fee_gwei=max_fee_gwei,
                priority_fee_gwei=tip_gwei,
                jitter_gwei=args.tip / 2,
            ):
                try:
                    lane.submit(tx)
                except MempoolRejection:
                    pass  # counted in the pool's rejection telemetry
        pool_peak = max(pool_peak, max(len(l.pool) for l in fabric.lanes))
        pending_integral += fabric.pending_total()
        fabric.mine_block()
        peaks = [
            max(peak, lane.base_fee_wei)
            for peak, lane in zip(peaks, fabric.lanes)
        ]

    drain_blocks = fabric.mine_until_pools_drain()
    floor = market.base_fee_floor_wei
    decay_blocks = drain_blocks
    while (
        any(lane.base_fee_wei > floor for lane in fabric.lanes)
        and decay_blocks < 1000
    ):
        fabric.mine_block()
        decay_blocks += 1

    gwei = 10**9
    total_drained = 0
    for lane_id, lane in enumerate(fabric.lanes):
        pool = lane.pool
        total_drained += pool.stats["drained"]
        print(f"lane {lane_id}: peak base fee {peaks[lane_id] / gwei:.3f} "
              f"gwei, burned {lane.burned:,} wei, drained "
              f"{pool.stats['drained']}, evicted {pool.stats['evicted']}, "
              f"rejections {pool.rejection_total()} "
              f"{dict(sorted(pool.rejections.items()))}")
    inversions = sum(lane.pool.priority_inversions for lane in fabric.lanes)
    held = pool_peak <= config.high_watermark
    print(f"priority inversions: {inversions}")
    print(f"pool peak {pool_peak} (high watermark {config.high_watermark}); "
          f"watermark held: {held}")
    print(f"base fee decayed to floor after {decay_blocks} post-storm "
          f"blocks: {all(l.base_fee_wei <= floor for l in fabric.lanes)}")
    if total_drained:
        # Little's law over the storm window: mean pending / drain rate.
        latency = pending_integral / total_drained + 1.0
        print(f"inclusion latency (Little's law estimate): "
              f"{latency:.2f} blocks")
    if args.lanes > 1:
        fees = ", ".join(f"{fee / gwei:.3f}" for fee in fabric.lane_base_fees())
        print(f"lane base fees (gwei): [{fees}]; congestion premium "
              f"{fabric.congestion_premium():.3f}x (hottest/coolest lane)")

    model = CongestionPricingModel.for_market(
        market, fabric.lanes[0].block_gas_limit, lanes=args.lanes,
    )
    growth = model.base_fee_growth_per_block(offered * args.lanes)
    print(f"model: base-fee growth {growth:.4f}x/block at this load, "
          f"decay from peak in "
          f"{model.decay_blocks_from_multiplier(max(peaks) / floor):.1f} "
          f"empty blocks")

    ok = held and inversions == 0
    if griefer is not None:
        reports = detect_fee_griefers(fabric.lanes[0])
        flagged = [r for r in reports if r.flagged]
        caught = any(r.sender == griefer.account for r in flagged)
        for report in flagged:
            print(f"fee-griefer detection: {report.sender[:10]} flagged "
                  f"(gas share {report.gas_share:.0%}, mean tip "
                  f"{report.mean_tip_wei / gwei:.2f} gwei)")
        print(f"griefer caught: {caught} "
              f"({len(flagged)} sender(s) flagged, griefer submitted "
              f"{griefer.submitted}, rejected {griefer.rejected})")
        ok = ok and caught
    return 0 if ok else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    """Host the long-lived JSON-RPC audit service over a sharded fabric."""
    import time
    from contextlib import nullcontext

    from .obs import MetricsHttpServer, Tracer
    from .rpc import RpcClient

    if args.lanes < 1 or args.fleet < 1 or args.epochs < 0:
        print("serve: --lanes and --fleet must be >= 1, --epochs >= 0",
              file=sys.stderr)
        return 2
    rng = random.Random(args.seed)
    params = ProtocolParams(s=args.s, k=args.k)
    instances = _fleet(params, rng, args.size, args.fleet, ["serve"])
    # Observability: an epoch-pipeline tracer for trace_get next to the
    # process-wide registry.  Spans are only collected on the sequential
    # settlement walk; see CrossShardAggregator.
    with _settling_fabric(
        instances, params, rng, "serve", args.lanes, workers=args.workers,
        crypto_cache=args.crypto_cache, concurrent=args.concurrent,
        tracer=Tracer(), host=args.host, port=args.port,
    ) as service, (
        MetricsHttpServer(service.registry, host=args.host,
                          port=args.metrics_port)
        if args.metrics_port >= 0 else nullcontext()
    ) as metrics_server:
        settlements = service.aggregator.run(args.epochs)
        host, port = service.server.serve_in_thread()
        print(f"audit service on {host}:{port} — {args.lanes} lanes"
              f"{' (concurrent)' if args.concurrent else ''}, "
              f"{len(instances)} audit instances, "
              f"{len(settlements)} epochs pre-settled, "
              f"{len(service.dispatcher.methods())} methods")
        if metrics_server is not None:
            print(f"prometheus metrics on http://{metrics_server.host}:"
                  f"{metrics_server.port}/metrics")
        if args.mine_interval > 0:
            service.node.start_auto_mine(args.mine_interval)
        if args.probe:
            # CI smoke: exercise the service through a real socket
            # client (and the Prometheus endpoint when enabled), then
            # shut down cleanly.
            with RpcClient(host, port) as client:
                status = client.call("node_status")
                print(f"probe node_status: lanes={status['num_lanes']} "
                      f"height={status['height']}")
                suggestion = client.call("fee_suggest", {"tip_gwei": 1.0})
                print(f"probe fee_suggest: max_fee="
                      f"{suggestion['max_fee_gwei']:g} gwei")
                checkpoint = client.call("checkpoint_get")
                print(f"probe checkpoint_get: epoch {checkpoint['epoch']}, "
                      f"root {checkpoint['fabric_root'][:16]}…")
                snapshot = client.call("metrics_get")
                layers = {name.split("_")[0] for name in snapshot}
                print(f"probe metrics_get: {len(snapshot)} instruments, "
                      f"layers {sorted(layers)}")
                ok = (
                    status["num_lanes"] == args.lanes
                    and suggestion["max_fee_gwei"] > 0
                    and checkpoint["num_lanes"] == args.lanes
                    and {"rpc", "mempool", "fabric", "engine",
                         "lifecycle"} <= layers
                )
            if metrics_server is not None:
                from urllib.request import urlopen

                url = (f"http://{metrics_server.host}:"
                       f"{metrics_server.port}/metrics")
                with urlopen(url) as response:
                    text = response.read().decode("utf-8")
                exposed = ok and "engine_epochs_total" in text
                print(f"probe /metrics: {len(text.splitlines())} lines")
                ok = exposed
            print(f"probe: {'OK' if ok else 'FAILED'}; shutting down")
            return 0 if ok else 1
        deadline = time.time() + args.duration if args.duration > 0 else None
        try:
            while deadline is None or time.time() < deadline:
                time.sleep(0.2)
        except KeyboardInterrupt:
            print("interrupted; shutting down")
        return 0


def _metric_total(snapshot: dict, name: str) -> float:
    """Sum a counter/gauge family's series from a metrics_get snapshot."""
    family = snapshot.get(name) or {}
    return sum(point.get("value", 0) for point in family.get("series", ()))


def _metric_histogram(snapshot: dict, name: str) -> dict:
    """First (unlabelled) histogram series of a family, or an empty one."""
    family = snapshot.get(name) or {}
    for point in family.get("series", ()):
        return point
    return {"count": 0, "sum": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0}


def _render_top(status: dict, snapshot: dict, lanes: list) -> str:
    """One ``repro top`` frame from node_status + metrics_get + lanes."""
    uptime = max(status.get("uptime_seconds", 0.0), 1e-9)
    epochs = _metric_total(snapshot, "engine_epochs_total")
    audits = _metric_total(snapshot, "engine_audits_total")
    depth = _metric_total(snapshot, "mempool_depth")
    verify = _metric_histogram(snapshot, "engine_verify_seconds")
    fees = {
        point["labels"].get("lane", "?"): point["value"]
        for point in (snapshot.get("fabric_lane_base_fee_wei") or {}).get(
            "series", ()
        )
    }
    total_txs = sum(summary.get("transactions", 0) for summary in lanes)
    lane_bits = []
    for summary in lanes:
        lane_id = summary.get("lane", "?")
        txs = summary.get("transactions", 0)
        share = 100.0 * txs / total_txs if total_txs else 0.0
        fee_gwei = fees.get(str(lane_id), 0) / 1e9
        lane_bits.append(
            f"lane{lane_id} {share:3.0f}% ({txs} txs, {fee_gwei:g} gwei)"
        )
    lines = [
        f"up {uptime:8.1f}s   height {status.get('height', 0):>6}   "
        f"lanes {status.get('num_lanes', 0)}"
        f"{' (concurrent)' if status.get('concurrent') else ''}   "
        f"auto-mine {'on' if status.get('auto_mine') else 'off'}",
        f"epochs  {epochs:10.0f} total  {epochs / uptime:8.2f}/s   "
        f"audits {audits:10.0f} total  {audits / uptime:8.2f}/s",
        f"mempool depth {depth:6.0f}   blocks mined "
        f"{_metric_total(snapshot, 'fabric_blocks_mined_total'):6.0f}   "
        f"txs settled "
        f"{_metric_total(snapshot, 'fabric_txs_settled_total'):6.0f}",
        "lanes   " + "   ".join(lane_bits),
        f"verify  p50 {verify['p50'] * 1e3:8.2f} ms   "
        f"p99 {verify['p99'] * 1e3:8.2f} ms   "
        f"over {verify['count']} epochs",
    ]
    return "\n".join(lines)


def _cmd_top(args: argparse.Namespace) -> int:
    """Live service telemetry snapshots over the metrics_get RPC."""
    import time

    from .rpc import RpcClient

    if args.iterations < 1 or args.interval < 0:
        print("top: --iterations must be >= 1, --interval >= 0",
              file=sys.stderr)
        return 2

    def frames(host: str, port: int) -> int:
        with RpcClient(host, port) as client:
            for frame in range(args.iterations):
                if frame:
                    time.sleep(args.interval)
                status = client.call("node_status")
                snapshot = client.call("metrics_get")
                lanes = client.call("explorer_lanes")
                print(f"-- repro top @ {host}:{port} "
                      f"[{frame + 1}/{args.iterations}] --")
                print(_render_top(status, snapshot, lanes))
        return 0

    if not args.demo:
        return frames(args.host, args.port)

    # Self-hosted demo: stand up a tiny two-lane service in-process (the
    # same wiring as ``repro serve``), settle one epoch, then read it back
    # through the real socket — used by the CLI smoke tests.
    from .obs import Tracer

    rng = random.Random(0)
    params = ProtocolParams(s=3, k=2)
    instances = _fleet(params, rng, 400, 2, ["top"])
    with _settling_fabric(instances, params, rng, "top", 2, tracer=Tracer(),
                          host="127.0.0.1") as service:
        service.aggregator.run(1)
        return frames(*service.server.serve_in_thread())


def _cmd_da_sample(args: argparse.Namespace) -> int:
    """Data-availability sampling demo over a live RPC service.

    Stands up the same sharded service as ``repro serve`` with DA enabled,
    settles epochs, then plays a sampling light client over the real
    socket: happy-path sampling (O(samples) download), a withholding
    aggregator caught by the same schedule, and k-of-n reconstruction
    driving an on-chain ``challenge_counts`` slash with ``--fraud``.
    """
    from .chain import CheckpointLightClient
    from .da import (
        DaCommitment,
        DaParams,
        DaSampler,
        DaWithholdingDetected,
        bundle_fetch,
        detection_probability,
    )
    from .rpc import RpcClient, da_sample_fetch

    if not 1 <= args.data_chunks < args.chunks <= 255:
        print("da-sample: need 1 <= --data-chunks < --chunks <= 255",
              file=sys.stderr)
        return 2
    if not 0.0 <= args.withhold <= 1.0:
        print("da-sample: --withhold must be in [0, 1]", file=sys.stderr)
        return 2

    rng = random.Random(args.seed)
    params = ProtocolParams(s=args.s, k=args.k)
    da_params = DaParams(n=args.chunks, k=args.data_chunks)
    instances = _fleet(params, rng, args.size, args.fleet, ["da"])
    ok = True
    with _settling_fabric(instances, params, rng, "da-sample", args.lanes,
                          da_params=da_params, host="127.0.0.1") as service:
        aggregator, registry = service.aggregator, service.registry
        aggregator.run(args.epochs)
        host, port = service.server.serve_in_thread()
        with RpcClient(host, port) as client:
            sampler = DaSampler(da_sample_fetch(client), registry=registry)
            epoch = args.epochs - 1
            listing = client.call("da_commitment_get", {"epoch": epoch})
            print(f"DA commitments for epoch {epoch}: "
                  f"{len(listing['lanes'])} lanes, (n, k) = "
                  f"({da_params.n}, {da_params.k})")
            seed = args.seed.to_bytes(8, "big", signed=True)
            commitments = {
                row["lane"]: DaCommitment.from_bytes(
                    bytes.fromhex(row["commitment"])
                )
                for row in listing["lanes"]
            }
            for lane_id, commitment in sorted(commitments.items()):
                report = sampler.sample(commitment, seed, budget=args.samples)
                settled = aggregator.settlement_for_epoch(epoch).lanes[lane_id]
                full = settled.da.chunk_payload_bytes()
                print(f"  lane {lane_id}: sampled {len(report.outcomes)} of "
                      f"{commitment.n} chunks -> "
                      f"{'available' if report.available else 'WITHHELD'}; "
                      f"downloaded {report.downloaded_bytes:,} B "
                      f"(full chunk set {full:,} B)")
                ok = ok and report.available

            if args.withhold > 0:
                lane_id = min(commitments)
                commitment = commitments[lane_id]
                hidden = max(1, round(args.withhold * commitment.n))
                settled = aggregator.settlement_for_epoch(epoch).lanes[lane_id]
                settled.da.withhold(range(hidden))
                analytic = detection_probability(
                    hidden / commitment.n, args.samples
                )
                report = sampler.sample(commitment, seed, budget=args.samples)
                try:
                    report.raise_if_withheld()
                    caught = False
                except DaWithholdingDetected as exc:
                    caught = True
                    print(f"withholding: lane {lane_id} hiding {hidden}/"
                          f"{commitment.n} chunks -> DETECTED "
                          f"({len(exc.failures)} failed samples; analytic "
                          f"P = {analytic:.4f})")
                if not caught:
                    print(f"withholding: lane {lane_id} hiding {hidden}/"
                          f"{commitment.n} chunks -> missed this run "
                          f"(analytic P = {analytic:.4f})")
                # Escalation: the surviving chunks still reconstruct the
                # epoch (withheld fraction is below the code's n-k slack),
                # proving the leaf set without trusting the aggregator.
                reconstruction = sampler.reconstruct(commitment, seed)
                contract = aggregator.pipelines[lane_id].contract
                light = CheckpointLightClient(
                    contract.export_instance_registry(), params,
                    aggregator.beacon,
                )
                replay = light.replay_reconstructed(
                    settled.bundle.checkpoint, reconstruction
                )
                print(f"reconstruction: {len(reconstruction.records)} records "
                      f"from {reconstruction.chunks_used} chunks; light-client "
                      f"replay -> "
                      f"{'consistent' if replay.consistent else 'INCONSISTENT'}")
                ok = ok and replay.consistent

        if args.fraud:
            # A lying aggregator posts an honest root with swapped
            # accepted/rejected counts, plus the DA commitment its
            # obligation demands.  A light client reconstructs the leaf
            # set from sampled chunks alone and slashes the counts
            # forgery on chain.
            lane_id = min(aggregator.pipelines)
            pipeline = aggregator.pipelines[lane_id]
            used = []

            def swap_counts(honest):
                real = honest.checkpoint
                forged = replace(
                    real, accepted=real.rejected, rejected=real.accepted
                )

                def evidence(checkpoint_id):
                    da_bundle, _ = pipeline.settler.post_da_root(
                        checkpoint_id, honest
                    )
                    local = DaSampler(
                        bundle_fetch({(lane_id, real.epoch): da_bundle}),
                        registry=registry,
                    )
                    reconstruction = local.reconstruct(
                        da_bundle.commitment, seed
                    )
                    used.append(reconstruction.chunks_used)
                    leaves = reconstruction.counts_challenge_leaves()
                    return ("challenge_counts", (leaves,),
                            sum(len(leaf) for leaf in leaves))

                return forged, evidence

            slashed = _challenge_forgery(
                pipeline, args.epochs, swap_counts, label="da-challenger"
            )
            print(f"fraud proof: counts-forged checkpoint challenged from "
                  f"{used[0]} reconstructed chunks -> "
                  f"{'slashed' if slashed is not None else 'NOT slashed'}"
                  + (f" ({slashed.payload['reason']})" if slashed is not None
                     else ""))
            ok = ok and slashed is not None
    return 0 if ok else 1


def _cmd_models(args: argparse.Namespace) -> int:
    capacity = ChainCapacityModel()
    load = ProviderLoadModel()
    print(f"per audit: ${usd_per_audit():.3f} (5 Gwei) / "
          f"${usd_per_audit(gas_price_gwei=1.2):.3f} (1.2 Gwei)")
    print(f"chain throughput: {capacity.tx_per_second:.2f} tx/s; "
          f"max users: {capacity.max_concurrent_users():,}")
    growth = capacity.annual_chain_growth_bytes(args.users) / 2**30
    per_provider = load.users_per_provider(args.users)
    print(f"{args.users:,} users: +{growth:.2f} GB/yr on chain, "
          f"{per_provider} users/provider, "
          f"{load.proving_time_for_all(per_provider):.1f} s to prove all")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Privacy-assured on-chain auditing of decentralized storage",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    keygen = sub.add_parser("keygen", help="generate an audit keypair")
    keygen.add_argument("--s", type=int, default=50)
    keygen.add_argument("--no-privacy", action="store_true")
    keygen.add_argument("--out", type=str, default="")
    keygen.set_defaults(func=_cmd_keygen)

    prepare = sub.add_parser("prepare", help="preprocess a local file")
    prepare.add_argument("--file", required=True)
    prepare.add_argument("--s", type=int, default=10)
    prepare.add_argument("--k", type=int, default=8)
    prepare.set_defaults(func=_cmd_prepare)

    audit = sub.add_parser("audit", help="simulate a full audit contract")
    audit.add_argument("--size", type=int, default=10_000)
    audit.add_argument("--rounds", type=int, default=3)
    audit.add_argument("--s", type=int, default=8)
    audit.add_argument("--k", type=int, default=5)
    audit.add_argument("--seed", type=int, default=0)
    audit.add_argument("--drop-after", type=int, default=None,
                       help="provider drops data after this round")
    audit.set_defaults(func=_cmd_audit)

    engine = sub.add_parser(
        "engine", help="run parallel audit epochs over an owners x files fleet"
    )
    engine.add_argument("--owners", type=int, default=4)
    engine.add_argument("--files", type=int, default=4,
                        help="files per owner (same owner key, distinct names)")
    engine.add_argument("--epochs", type=int, default=2)
    engine.add_argument("--workers", type=int, default=0,
                        help="process-pool size (0 = one per CPU core)")
    engine.add_argument("--size", type=int, default=4_000)
    engine.add_argument("--s", type=int, default=10)
    engine.add_argument("--k", type=int, default=8)
    engine.add_argument("--seed", type=int, default=0)
    engine.add_argument("--crypto-cache", metavar="DIR", default=None,
                        help="""persist BN254 precompute tables (wNAF/fixed-base/GT windows, prepared Miller lines) under DIR so restarts begin at warm-cache speed""")
    engine.add_argument("--lanes", type=int, default=1,
                        help="run one scheduler per fabric lane over the "
                        "shared process pool (1 = unsharded)")
    engine.set_defaults(func=_cmd_engine)

    checkpoint = sub.add_parser(
        "checkpoint",
        help="epoch checkpoint rollup: one on-chain commitment per epoch, "
        "light-client inclusion proofs, optional fraud-proof demo",
    )
    checkpoint.add_argument("--owners", type=int, default=2)
    checkpoint.add_argument("--files", type=int, default=4,
                            help="files per owner (same key, distinct names)")
    checkpoint.add_argument("--epochs", type=int, default=2)
    checkpoint.add_argument("--workers", type=int, default=1,
                            help="process-pool size (0 = one per CPU core)")
    checkpoint.add_argument("--size", type=int, default=1_500)
    checkpoint.add_argument("--s", type=int, default=6)
    checkpoint.add_argument("--k", type=int, default=4)
    checkpoint.add_argument("--seed", type=int, default=0)
    checkpoint.add_argument("--fraud", action="store_true",
                            help="also post a forged (verdict-flipped) "
                            "checkpoint and slash it via the fraud proof")
    checkpoint.add_argument("--lanes", type=int, default=1,
                            help="settle across a sharded chain fabric with "
                            "per-lane commitments and one cross-shard "
                            "super-commitment (1 = single chain)")
    checkpoint.set_defaults(func=_cmd_checkpoint)

    shard = sub.add_parser(
        "shard",
        help="sharded chain fabric: lane-partitioned audit settlement, "
        "cross-shard super-commitment, optional WAL-persisted lane state",
    )
    shard.add_argument("--lanes", type=int, default=4)
    shard.add_argument("--fleet", type=int, default=16,
                       help="total audit instances, placed on lanes by "
                       "deterministic file-name hashing")
    shard.add_argument("--persist", type=str, default="",
                       help="directory for per-lane WAL + snapshot state "
                       "stores (reopened runs recover bit-identically)")
    shard.add_argument("--epochs", type=int, default=2)
    shard.add_argument("--workers", type=int, default=1,
                       help="process-pool size (0 = one per CPU core)")
    shard.add_argument("--size", type=int, default=1_500)
    shard.add_argument("--s", type=int, default=6)
    shard.add_argument("--k", type=int, default=4)
    shard.add_argument("--seed", type=int, default=0)
    shard.add_argument("--fraud", action="store_true",
                       help="post a forged lane checkpoint and slash it via "
                       "that lane's fraud proof")
    shard.set_defaults(func=_cmd_shard)

    attack = sub.add_parser(
        "attack",
        help="adversary suite: the Section V-C privacy attack or a "
        "byzantine provider strategy (docs/SCENARIOS.md)",
    )
    attack.add_argument(
        "--strategy",
        choices=("privacy", "forge", "replay", "selective", "bitrot",
                 "offline", "all"),
        default="privacy",
        help="'privacy' = interpolation attack on plain proofs; anything "
        "else runs the byzantine provider library",
    )
    attack.add_argument("--s", type=int, default=6)
    attack.add_argument("--k", type=int, default=4)
    attack.add_argument("--seed", type=int, default=0)
    attack.add_argument("--rho", type=float, default=0.25,
                        help="strategy intensity: discard fraction / "
                        "corruption probability / offline probability")
    attack.add_argument("--epochs", type=int, default=3,
                        help="audit epochs for the engine-driven scenario")
    attack.add_argument("--trials", type=int, default=2000,
                        help="challenge-sampling trials for the detection-"
                        "rate measurement")
    attack.add_argument("--rounds", type=int, default=3,
                        help="contract rounds for --onchain")
    attack.add_argument("--onchain", action="store_true",
                        help="drive the strategy through the audit contract "
                        "and dispute the failures (slashes collateral and "
                        "reputation stake)")
    attack.set_defaults(func=_cmd_attack)

    lifecycle = sub.add_parser(
        "lifecycle",
        help="simulate years of DSN operation: churn, erasure repair, "
        "reputation-weighted re-placement, audit-driven eviction, per-epoch "
        "checkpoint settlement on a sharded fabric",
    )
    lifecycle.add_argument("--years", type=float, default=2.0)
    lifecycle.add_argument("--churn", type=float, default=0.2,
                           help="annual provider turnover probability")
    lifecycle.add_argument("--lanes", type=int, default=2,
                           help="chain fabric lanes for settlement")
    lifecycle.add_argument("--epochs-per-year", type=int, default=12,
                           help="time compression: audit epochs per "
                           "simulated year")
    lifecycle.add_argument("--files", type=int, default=2)
    lifecycle.add_argument("--size", type=int, default=900,
                           help="bytes per stored file")
    lifecycle.add_argument("--shards", type=int, default=4,
                           help="erasure shards per file (RS n)")
    lifecycle.add_argument("--needed", type=int, default=2,
                           help="shards needed to reconstruct (RS k)")
    lifecycle.add_argument("--providers", type=int, default=8,
                           help="initial storage providers")
    lifecycle.add_argument("--flake", type=float, default=0.1,
                           help="annual P[a provider turns silently flaky]")
    lifecycle.add_argument("--hazard", choices=("exponential", "weibull"),
                           default="exponential",
                           help="departure hazard shape")
    lifecycle.add_argument("--persist", type=str, default="",
                           help="directory for WAL-persisted lanes + the "
                           "per-epoch engine snapshot (crash/reopen "
                           "continues bit-identically)")
    lifecycle.add_argument("--resume", action="store_true",
                           help="reopen the run persisted under --persist "
                           "at its last epoch boundary")
    lifecycle.add_argument("--seed", type=int, default=0)
    lifecycle.add_argument("--s", type=int, default=4)
    lifecycle.add_argument("--k", type=int, default=3)
    lifecycle.add_argument("--workers", type=int, default=1,
                           help="process-pool size (0 = one per CPU core)")
    lifecycle.add_argument("--crypto-cache", metavar="DIR", default=None,
                           help="""persist BN254 precompute tables (wNAF/fixed-base/GT windows, prepared Miller lines) under DIR so restarts begin at warm-cache speed""")
    lifecycle.set_defaults(func=_cmd_lifecycle)

    congest = sub.add_parser(
        "congest",
        help="fee-market congestion run: storm pooled lanes with audit-"
        "shaped traffic, report base-fee dynamics, watermarks, priority "
        "inversions and (optionally) fee-griefer detection",
    )
    congest.add_argument("--lanes", type=int, default=1,
                         help="fabric lanes, each with its own pool and "
                         "fee market")
    congest.add_argument("--blocks", type=int, default=12,
                         help="storm duration in blocks")
    congest.add_argument("--load", type=float, default=1.5,
                         help="offered gas per block per lane, in multiples "
                         "of the fee market's gas target")
    congest.add_argument("--storm", action="store_true",
                         help="epoch-boundary audit storm: force the "
                         "offered load to at least 2x the gas target")
    congest.add_argument("--griefer", action="store_true",
                         help="add a fee-griefing adversary on lane 0 and "
                         "report the telemetry-based detection verdict")
    congest.add_argument("--senders", type=int, default=8,
                         help="honest audit submitters per lane")
    congest.add_argument("--tip", type=float, default=1.0,
                         help="honest priority fee in gwei")
    congest.add_argument("--seed", type=int, default=0)
    congest.set_defaults(func=_cmd_congest)

    serve = sub.add_parser(
        "serve",
        help="host the long-lived JSON-RPC audit service: per-lane "
        "mempool ingress, audit/checkpoint/proof queries, explorer "
        "endpoints, newline-framed JSON-RPC 2.0 over TCP",
    )
    serve.add_argument("--host", type=str, default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="listen port (0 = ephemeral, printed at start)")
    serve.add_argument("--lanes", type=int, default=2,
                       help="chain fabric lanes behind the service")
    serve.add_argument("--concurrent", action="store_true",
                       help="execute lanes on a worker-per-lane thread pool")
    serve.add_argument("--fleet", type=int, default=2,
                       help="audit instances preloaded into the aggregator")
    serve.add_argument("--epochs", type=int, default=1,
                       help="audit epochs settled before serving (gives "
                       "checkpoint_get/fabric_proof_get real data)")
    serve.add_argument("--size", type=int, default=500,
                       help="bytes per preloaded file")
    serve.add_argument("--mine-interval", type=float, default=0.5,
                       help="auto-mine period in seconds (0 = only "
                       "explicit 'mine' calls)")
    serve.add_argument("--duration", type=float, default=0.0,
                       help="serve for this many seconds then exit "
                       "(0 = until interrupted)")
    serve.add_argument("--metrics-port", type=int, default=-1,
                       help="expose Prometheus text metrics over HTTP on "
                       "this port (0 = ephemeral, -1 = disabled)")
    serve.add_argument("--probe", action="store_true",
                       help="CI smoke: start, call the service through "
                       "a socket client (and /metrics when enabled), "
                       "shut down cleanly")
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--s", type=int, default=4)
    serve.add_argument("--k", type=int, default=3)
    serve.add_argument("--workers", type=int, default=1,
                       help="audit executor process-pool size "
                       "(0 = one per CPU core)")
    serve.add_argument("--crypto-cache", metavar="DIR", default=None,
                       help="""persist BN254 precompute tables (wNAF/fixed-base/GT windows, prepared Miller lines) under DIR so restarts begin at warm-cache speed""")
    serve.set_defaults(func=_cmd_serve)

    top = sub.add_parser(
        "top",
        help="render live service telemetry snapshots (epochs/s, audits/s, "
        "lane utilization, mempool depth, base fees, verify latency) "
        "over the metrics_get RPC",
    )
    top.add_argument("--host", type=str, default="127.0.0.1")
    top.add_argument("--port", type=int, default=0,
                     help="port of a running 'repro serve' service")
    top.add_argument("--interval", type=float, default=2.0,
                     help="seconds between snapshot frames")
    top.add_argument("--iterations", type=int, default=1,
                     help="frames to render before exiting")
    top.add_argument("--demo", action="store_true",
                     help="self-host a tiny two-lane service in-process "
                     "and read it back (no running serve needed)")
    top.set_defaults(func=_cmd_top)

    da_sample = sub.add_parser(
        "da-sample",
        help="data-availability sampling: a light client verifies chunk "
        "availability over RPC, catches withholding, and reconstructs "
        "the leaf set from k-of-n chunks",
    )
    da_sample.add_argument("--lanes", type=int, default=2)
    da_sample.add_argument("--fleet", type=int, default=4,
                           help="audit instances across the fabric")
    da_sample.add_argument("--epochs", type=int, default=1)
    da_sample.add_argument("--samples", type=int, default=18,
                           help="light-client sample budget per epoch")
    da_sample.add_argument("--chunks", type=int, default=32,
                           help="extended chunks per epoch (RS n)")
    da_sample.add_argument("--data-chunks", type=int, default=8,
                           help="chunks needed to reconstruct (RS k)")
    da_sample.add_argument("--withhold", type=float, default=0.25,
                           help="fraction of one lane's chunks to withhold "
                           "for the detection demo (0 disables)")
    da_sample.add_argument("--fraud", action="store_true",
                           help="also post a counts-forged checkpoint and "
                           "slash it from DA-reconstructed leaves")
    da_sample.add_argument("--size", type=int, default=1_500)
    da_sample.add_argument("--s", type=int, default=6)
    da_sample.add_argument("--k", type=int, default=4)
    da_sample.add_argument("--seed", type=int, default=0)
    da_sample.set_defaults(func=_cmd_da_sample)

    models = sub.add_parser("models", help="print the Section VII-D models")
    models.add_argument("--users", type=int, default=5_000)
    models.set_defaults(func=_cmd_models)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
