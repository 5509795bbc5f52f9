#!/bin/sh
# End-to-end smoke test of `confcase serve` in pipe mode: drive the
# daemon over stdin/stdout with newline-delimited JSON and assert the
# memoisation contract holds on the wire —
#
#   - a repeated evaluate hits the cache and returns the SAME BITS as
#     the cold evaluation (hex side-channel compared exactly);
#   - an edit refreshes incrementally and a post-flush cold evaluate of
#     the edited graph reproduces the incremental answer bitwise;
#   - quantile serves from a hot belief;
#   - the daemon acknowledges shutdown and exits 0;
#   - a stream session (Beta, Gamma and belief-mixture streams; ingest,
#     posterior, trajectories at edge bounds; error rows) reproduces the
#     recorded transcript in test/golden/ byte for byte.  Clients compare
#     these bytes, so a changed number layout or error message fails here.
#
# Run from the repo root (`make serve-smoke`).
set -eu

out=$(mktemp)
req=$(mktemp)
stream_out=$(mktemp)
trap 'rm -f "$out" "$req" "$stream_out"' EXIT

cat > "$req" <<'EOF'
{"op":"generate","case":"g","seed":11,"legs":9,"fanout":10,"depth":3,"id":"gen"}
{"op":"evaluate","case":"g","dependence":0.3,"id":"cold"}
{"op":"evaluate","case":"g","dependence":0.3,"id":"memo"}
{"op":"edit","case":"g","node":0,"value":0.91,"dependence":0.3,"id":"edit"}
{"op":"evaluate","case":"g","dependence":0.3,"id":"post_edit"}
{"op":"load_belief","belief":"b","path":"examples/sis.belief","id":"belief"}
{"op":"quantile","belief":"b","p":0.5,"id":"q"}
{"op":"flush","id":"flush"}
{"op":"evaluate","case":"g","dependence":0.3,"id":"cold_after_edit"}
{"op":"stats","id":"stats"}
{"op":"shutdown","id":"bye"}
EOF

dune exec bin/confcase.exe -- serve < "$req" > "$out"
code=$?
test "$code" -eq 0 || { echo "serve exited $code"; exit 1; }

python3 - "$out" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    lines = [l for l in f.read().splitlines() if l.strip()]
assert len(lines) == 11, f"expected 11 responses, got {len(lines)}"
by_id = {}
for line in lines:
    r = json.loads(line)
    assert r.get("ok") is True, f"request failed: {line}"
    by_id[r["id"]] = r

cold, memo = by_id["cold"], by_id["memo"]
assert cold["cached"] is False, "first evaluate must be cold"
assert memo["cached"] is True, "repeat evaluate must hit the memo"
assert memo["bits"] == cold["bits"], (
    f"memo hit not bit-identical to cold: {memo['bits']} != {cold['bits']}")

edit, post = by_id["edit"], by_id["post_edit"]
assert post["bits"] == edit["bits"], (
    "evaluate after edit disagrees with the edit's incremental answer")

cold2 = by_id["cold_after_edit"]
assert cold2["cached"] is False, "post-flush evaluate must be cold"
assert cold2["bits"] == edit["bits"], (
    f"incremental edit not bit-identical to cold re-evaluation: "
    f"{edit['bits']} != {cold2['bits']}")

q = by_id["q"]
assert 0.0 < q["value"] < 1.0, f"quantile out of range: {q['value']}"

stats = by_id["stats"]
assert stats["hits"] >= 2 and stats["cases"] == 1 and stats["beliefs"] == 1

print("serve-smoke: 11 responses ok; memo bits == cold bits "
      f"({cold['bits']}); incremental edit bits == post-flush cold bits "
      f"({edit['bits']}); clean shutdown")
EOF

dune exec bin/confcase.exe -- serve < test/golden/serve_stream.ndjson \
  > "$stream_out"
code=$?
test "$code" -eq 0 || { echo "serve exited $code on the stream session"; exit 1; }
if ! cmp -s "$stream_out" test/golden/serve_stream.expected; then
  echo "serve-smoke: stream session differs from test/golden/serve_stream.expected"
  diff "$stream_out" test/golden/serve_stream.expected | head -20
  exit 1
fi
echo "serve-smoke: stream session byte-identical to the golden" \
  "($(wc -l < test/golden/serve_stream.expected) responses)"
