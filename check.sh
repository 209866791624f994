#!/bin/sh
# Pre-merge gate: build, test, formatting, fixed-seed smoke runs, and the
# bench-regression diff against committed seed baselines.  CHECK_SLOW=1
# additionally re-runs the property suite with 5x the iteration counts
# and diffs the full benchmark sweeps.
set -eux

dune build
dune runtest
dune build @fmt

# Every tracked file is outside .gitignore: a committed baseline the
# gate reads needs its own "!" exception, and a build or run artifact
# must not be tracked.  Skipped outside a git work tree (e.g. a tarball).
if git rev-parse --is-inside-work-tree > /dev/null 2>&1; then
  ignored=$(git ls-files -ci --exclude-standard)
  if [ -n "$ignored" ]; then
    echo "check: tracked files matched by .gitignore: $ignored" >&2
    exit 1
  fi
fi

# No control flow reads the observability registry: outside lib/obs the
# library threads its counts (e.g. solver steps) out of calls as values.
if grep -rn 'Metric\.value' lib --exclude-dir=obs; then
  echo "check: Metric.value read outside lib/obs" >&2
  exit 1
fi

# One home for signature checking: RSA verification runs only in the
# certificate check behind the keystore's memo (crypto/cert.ml), in Rsa
# itself and for the proof-package signature (core/proof.ml); in lib/core
# only Session's entry point calls Cert.verify.
if grep -rn 'Rsa\.verify' lib --include='*.ml' \
  | grep -v -e '^lib/crypto/cert\.ml:' -e '^lib/crypto/rsa\.ml:' \
    -e '^lib/core/proof\.ml:'; then
  echo "check: Rsa.verify called outside Cert, Rsa and Proof" >&2
  exit 1
fi
if grep -rn 'Cert\.verify' lib/core | grep -v '^lib/core/session\.mli\{0,1\}:'; then
  echo "check: Cert.verify called in lib/core outside Session.verify_cert" >&2
  exit 1
fi

# One receipt step: knowledge received from another peer enters a peer
# only through Engine.receive, so neither the queued runtime, the
# strategies nor distributed tabling learn certificates or add rules
# themselves.
if grep -nE 'Engine\.learn|Peer\.add_cert|Peer\.add_rule' \
  lib/core/reactor.ml lib/core/strategy.ml lib/core/tabling.ml; then
  echo "check: received knowledge learned outside Engine.receive" >&2
  exit 1
fi

# Remote dispatch has one parameter, [remote] (Sld.no_remote keeps an
# evaluation local); no boolean switch selects it.
if grep -rn 'allow_remote' lib; then
  echo "check: allow_remote in lib/ (pass ~remote:Sld.no_remote)" >&2
  exit 1
fi

# One home for the denial vocabulary: reasons are Peertrust_net.Denial
# constructors, classified by Denial.class_of.  No string classifier or
# prefix test on a reason, and no Deny payload, Denied outcome or
# Policy.decision built from a string literal.
if grep -rnE 'classify_denial|(has_prefix|starts_with|String\.sub)[^;]*reason' lib; then
  echo "check: a denial reason is parsed as a string in lib/" >&2
  exit 1
fi
if grep -rnE 'reason = "|Deny \(?"|Denied \(?"' lib --include='*.ml'; then
  echo "check: a Deny or Denied is built from a string literal in lib/" >&2
  exit 1
fi

# The committed BENCH_*.json baselines must come out of the run untouched:
# every artifact below goes to the scratch dir.  Checked at the end.
bench_sums=$(cksum BENCH_*.json)

# Chaos smoke: scenario 1 under a fixed-seed fault schedule must terminate
# and export non-empty fault metrics.
metrics=$(mktemp)
cache_metrics=$(mktemp)
trace_a=$(mktemp)
trace_b=$(mktemp)
bench_dir=$(mktemp -d)
trap 'rm -f "$metrics" "$cache_metrics" "$trace_a" "$trace_b"; rm -rf "$bench_dir"' EXIT
./_build/default/bin/main.exe scenario elearn \
  --fault-seed 7 --drop 0.15 --duplicate 0.1 --delay 0.2 --outage UIUC:3:9 \
  --metrics-out "$metrics" > /dev/null
grep -q '"net.drops"' "$metrics"
grep -q '"reactor.retries"' "$metrics"

# Cache smoke: a cold + warm scenario pass over one session must record
# cache hits in the exported metrics.
./_build/default/bin/main.exe scenario services --cache --repeat 2 \
  --metrics-out "$cache_metrics" > /dev/null
grep -q '"cache.hits"' "$cache_metrics"
if grep -q '"cache.hits":0[,}]' "$cache_metrics"; then
  echo "cache smoke: no cache hits recorded" >&2
  exit 1
fi

# Resolution smoke: the scaled resolution-core workloads once, with the
# engine's answer sets diffed against the map-based reference engine.
./_build/default/bench/main.exe resolution --smoke \
  --metrics-dir "$bench_dir" > /dev/null

# Adversary smoke: scenario 1 with misbehaving peers and guards on; the
# bench hard-fails if an honest negotiation is lost, a flooding/malformed
# adversary escapes quarantine, or an honest peer is quarantined.  The
# artifact goes to the scratch dir: the committed BENCH_adversary.json is
# the *full-scale* baseline the CHECK_SLOW diff runs against, and writing
# the smoke artifact into the repo root would clobber it.
./_build/default/bench/main.exe adversary --smoke \
  --metrics-dir "$bench_dir" > /dev/null

# Trace smoke: a faulted scenario run with tracing on must produce an
# identical span log on a re-run (determinism is what makes the artifact
# diffable), and the trace subcommand must reconstruct a timeline with a
# cross-peer critical path from it.
./_build/default/bin/main.exe scenario elearn \
  --fault-seed 7 --drop 0.15 --duplicate 0.1 --delay 0.2 \
  --trace-out "$trace_a" > /dev/null
./_build/default/bin/main.exe scenario elearn \
  --fault-seed 7 --drop 0.15 --duplicate 0.1 --delay 0.2 \
  --trace-out "$trace_b" > /dev/null
cmp "$trace_a" "$trace_b"
./_build/default/bin/main.exe trace "$trace_a" | grep -q 'critical path'
./_build/default/bin/main.exe trace "$trace_a" | grep -q 'net.wire'

# Recursion smoke: a cyclic mutual-accreditation policy must terminate
# under distributed tabling (loop detection + GEM-style completion) and
# grant the chained credential; then the scaled recursion workloads once,
# diffed against the committed seed baseline.
./_build/default/bin/main.exe scenario accreditation --tabling \
  --metrics-out "$metrics" > /dev/null
grep -q '"negotiation.granted":1[,}]' "$metrics"
if grep -q '"tabling.loops_detected":0[,}]' "$metrics"; then
  echo "recursion smoke: no inter-peer loop detected" >&2
  exit 1
fi
./_build/default/bench/main.exe recursion --smoke \
  --metrics-dir "$bench_dir" > /dev/null
./_build/default/bench/main.exe diff --against-seed recursion_smoke \
  "$bench_dir/BENCH_recursion.json"

# Crash smoke: scenario 1 with a scheduled crash+restart and journals on
# must recover and grant; the recovery metrics must stay inside the
# committed smoke baseline's bands.
journal_dir=$(mktemp -d)
./_build/default/bin/main.exe scenario elearn \
  --crash E-Learn:5:40 --journal "$journal_dir" \
  --metrics-out "$metrics" > /dev/null
grep -q '"negotiation.granted":1[,}]' "$metrics"
grep -q '"reactor.restarts":1[,}]' "$metrics"
rm -rf "$journal_dir"
./_build/default/bench/main.exe crash --smoke \
  --metrics-dir "$bench_dir" > /dev/null
./_build/default/bench/main.exe diff --against-seed crash_smoke \
  "$bench_dir/BENCH_crash.json"

# Bench-regression gate: the smoke resolution metrics must stay inside
# the per-metric tolerance bands of the committed seed baseline, and the
# diff tool must catch an injected 2x inflation (self-test).
./_build/default/bench/main.exe resolution --smoke \
  --metrics-dir "$bench_dir" > /dev/null
# The million-fact workloads (scaled down under --smoke) must have
# reported their gauges, and histograms that recorded nothing (e.g. the
# reactor's, which bench resolution never enters) must not be emitted.
grep -q '"resolution.ground_lookup.ms"' "$bench_dir/BENCH_resolution.json"
grep -q '"resolution.indexed_million.ms"' "$bench_dir/BENCH_resolution.json"
if grep -q '"reactor.steps_per_run"' "$bench_dir/BENCH_resolution.json"; then
  echo "bench resolution: empty histogram leaked into the artifact" >&2
  exit 1
fi
./_build/default/bench/main.exe diff --against-seed resolution_smoke \
  "$bench_dir/BENCH_resolution.json"
if ./_build/default/bench/main.exe diff --against-seed resolution_smoke \
  --inflate 2 "$bench_dir/BENCH_resolution.json" > /dev/null 2>&1; then
  echo "bench diff: failed to flag an injected 2x regression" >&2
  exit 1
fi
# The same self-test on the recursion smoke artifact: the distributed
# tabling counters (tabled.*, tabling.*) are gated, not just recorded.
if ./_build/default/bench/main.exe diff --against-seed recursion_smoke \
  --inflate 2 "$bench_dir/BENCH_recursion.json" > /dev/null 2>&1; then
  echo "bench diff: failed to flag an injected 2x recursion regression" >&2
  exit 1
fi

# Slow gate: the property suite again with raised iteration counts, then
# the full benchmark sweeps diffed against their committed baselines.
if [ "${CHECK_SLOW:-0}" != "0" ]; then
  CHECK_SLOW=1 ./_build/default/test/test_properties.exe
  ./_build/default/bench/main.exe adversary chaos resolution recursion crash \
    --metrics-dir "$bench_dir"
  ./_build/default/bench/main.exe diff --against-seed adversary \
    "$bench_dir/BENCH_adversary.json"
  ./_build/default/bench/main.exe diff --against-seed chaos \
    "$bench_dir/BENCH_chaos.json"
  ./_build/default/bench/main.exe diff --against-seed resolution \
    "$bench_dir/BENCH_resolution.json"
  ./_build/default/bench/main.exe diff --against-seed recursion \
    "$bench_dir/BENCH_recursion.json"
  ./_build/default/bench/main.exe diff --against-seed crash \
    "$bench_dir/BENCH_crash.json"
fi

if [ "$(cksum BENCH_*.json)" != "$bench_sums" ]; then
  echo "check: the run rewrote a committed BENCH_*.json baseline" >&2
  exit 1
fi
