#!/usr/bin/env bash
# Smoke-checks a running serve instance: classify one image, verify the
# metrics endpoint, then exercise graceful shutdown via the admin endpoint.
# Run under with-serve.sh, which owns the server lifecycle.
set -euo pipefail

ADDR=${1:-127.0.0.1:7979}

python3 - "$ADDR" <<'EOF'
import json, sys, urllib.request
addr = sys.argv[1]
image = [((i * 31) % 13) / 13.0 - 0.5 for i in range(3 * 32 * 32)]
body = json.dumps({"image": image}).encode()
req = urllib.request.Request(
    f"http://{addr}/v1/classify", data=body,
    headers={"Content-Type": "application/json"})
with urllib.request.urlopen(req, timeout=30) as resp:
    assert resp.status == 200, resp.status
    answer = json.load(resp)
assert isinstance(answer["class"], int), answer
assert len(answer["scores"]) == 10, answer
print("classify ok:", answer["class"])
EOF

# /metrics must be a parseable Prometheus exposition, not just non-empty:
# obs-report --check-prom exits nonzero on any malformed line.
METRICS_SCRAPE=$(mktemp)
trap 'rm -f "$METRICS_SCRAPE"' EXIT
curl -sf "http://$ADDR/metrics" > "$METRICS_SCRAPE"
grep -q serve_classify_ok "$METRICS_SCRAPE"
grep -q serve_batch_size_sum "$METRICS_SCRAPE"
./target/release/obs-report --check-prom "$METRICS_SCRAPE"
curl -sf -X POST "http://$ADDR/admin/shutdown" > /dev/null
