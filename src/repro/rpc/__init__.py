"""Long-lived JSON-RPC 2.0 audit service: the network face of the stack.

The first layer where "clients" means sockets instead of in-process
calls.  A :class:`~repro.rpc.node.ServiceNode` wraps a chain (or sharded
fabric, optionally with the cross-shard aggregator and the lifecycle
engine mounted), a :class:`~repro.rpc.service.RpcDispatcher` routes and
meters methods, and :class:`~repro.rpc.server.RpcTcpServer` serves them
over newline-delimited JSON frames — stdlib only, one daemon thread per
connection, structured errors mirroring the mempool's admission taxonomy.

``python -m repro serve`` hosts it from the CLI; the protocol (method and
error tables, wire framing) is specified in ``docs/PROTOCOL.md``
section 12, and the concurrency/soak/differential test layer lives under
``tests/rpc/``.
"""

from .client import RpcClient, RpcClientError, RpcTransportError
from .codec import (
    INTERNAL_ERROR,
    INVALID_PARAMS,
    INVALID_REQUEST,
    MAX_BATCH_ITEMS,
    MAX_FRAME_BYTES,
    METHOD_NOT_FOUND,
    NOT_FOUND,
    PARSE_ERROR,
    REJECTION_RPC_CODES,
    UNSUPPORTED,
    RpcError,
    decode_frame,
    encode_error,
    encode_frame,
    encode_result,
    rejection_error,
    validate_request,
)
from .node import SERVICE_METHODS, ServiceNode, da_sample_fetch
from .server import RpcTcpServer, probe
from .service import RpcDispatcher

__all__ = [
    "INTERNAL_ERROR",
    "INVALID_PARAMS",
    "INVALID_REQUEST",
    "MAX_BATCH_ITEMS",
    "MAX_FRAME_BYTES",
    "METHOD_NOT_FOUND",
    "NOT_FOUND",
    "PARSE_ERROR",
    "REJECTION_RPC_CODES",
    "RpcClient",
    "RpcClientError",
    "RpcDispatcher",
    "RpcError",
    "RpcTcpServer",
    "RpcTransportError",
    "SERVICE_METHODS",
    "ServiceNode",
    "UNSUPPORTED",
    "da_sample_fetch",
    "decode_frame",
    "encode_error",
    "encode_frame",
    "encode_result",
    "probe",
    "rejection_error",
    "validate_request",
]
