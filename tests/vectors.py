"""Hex test-vector records of one onion spec, as tests/data/vectors_*.txt
hold them."""

from rsor.packet import _header_fields, build_padding, derive


def onion_vector_lines(spec, params):
    """Hex test-vector records for one spec: padding, per-layer header
    pieces, and full serialized onions for both directions."""
    d = derive(spec, params)
    n = len(spec.path)
    lines = []
    for i in range(n + 1):
        lines.append("phi_%d,%s" % (i, build_padding(d.fwd_chain, i, params).hex()))
    for i, onion in enumerate(d.onions[:n]):
        _alpha, beta, gamma = _header_fields(onion, params)
        lines.append("beta_%d,%s" % (i, beta.hex()))
        lines.append("gamma_%d,%s" % (i, gamma.hex()))
    for i, onion in enumerate(d.onions, start=1):
        kind = "onion" if i <= n else "reply_onion"
        lines.append("%s_%d,%s" % (kind, i, onion.hex()))
    return lines
