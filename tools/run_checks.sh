#!/usr/bin/env bash
# Standard pre-PR gate: build the Release config and a TSan config, run the
# tier-1 test suite in Release, and run the labeled tiers in both:
#  - ctest -L fault: the chaos tier (ISSUE 2 acceptance: same script on the
#    threaded runtime with zero reported races);
#  - ctest -L obs: the telemetry tier (ISSUE 3 acceptance: registry,
#    counters, and trace rings race-free under ThreadSanitizer).
# The telemetry-overhead gate then fails the run if a disabled hub makes
# the selection hot path measurably slower than no hub at all. After the
# gates, observability acceptance checks run (ISSUE 4): machine-readable
# bench JSON artifacts, byte-identical Perfetto export across same-seed
# runs, bench/handler_comparison's table byte-identical to the committed
# bench/golden/handler_comparison.txt, and a live /metrics scrape against
# a threaded run. The calibration gates cover the prediction-calibration
# layer: a disabled
# tracker must stay within 2% of the bare outcome path, the scripted
# service-shift scenario must raise the drift alert deterministically
# before the QoS violation, calibration_report must emit
# BENCH_calibration.json (quiet on stationary runs), and /calibration
# must serve the live tracker. The fleet gates cover cross-process
# observability: bench/fleet_report must stitch >=95% of answered traces
# with conserved merged counters, and a real gateway + 2-replica process
# fleet over loopback UDP must yield at least one fully-stitched trace
# whose merged counters equal the sum of the per-node /metrics totals.
# Last come the sanitizer configs: TSan (build-tsan/) runs the chaos,
# telemetry and transport tiers (the Lan on both clocks, UDP, and the
# threaded runtime over each); ASan+UBSan (build-asan/) runs tier-1,
# the chaos tier and the transport tests.
#
# Usage: tools/run_checks.sh [jobs]
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc)}"

# Stamp bench JSON artifacts with the commit they measured, and collect
# them next to the bench binaries rather than in the source tree.
AQUA_BENCH_COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
export AQUA_BENCH_COMMIT
export AQUA_BENCH_JSON_DIR="build/bench"

step() { printf '\n==== %s ====\n' "$*"; }

step "Configure + build: Release (build/)"
cmake -B build -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build build -j "${JOBS}"

step "Tier-1 ctest (Release)"
ctest --test-dir build --output-on-failure -j "${JOBS}"

step "Chaos tier: ctest -L fault (Release)"
ctest --test-dir build --output-on-failure -j "${JOBS}" -L fault

step "Telemetry tier: ctest -L obs (Release)"
ctest --test-dir build --output-on-failure -j "${JOBS}" -L obs

step "Telemetry-overhead gate: disabled hub within 2% of bare hot path"
build/bench/selection_hot_path --check-telemetry-overhead
test -s build/bench/BENCH_selection.json
grep -q '"commit":' build/bench/BENCH_selection.json

step "Calibration-overhead gate: disabled tracker within 2% of bare outcome path"
build/bench/selection_hot_path --check-calibration-overhead
grep -q '"metric":"calibration_disabled_overhead"' build/bench/BENCH_selection.json

step "Drift determinism: scripted service shift trips calibration before QoS"
ctest --test-dir build --output-on-failure -R 'CalibrationDrift'

step "Bench JSON: calibration report emits BENCH_calibration.json"
build/bench/calibration_report >/dev/null
test -s build/bench/BENCH_calibration.json
grep -q '"metric":"shifted_drift_alarms"' build/bench/BENCH_calibration.json
grep -q '"metric":"stationary_drift_alarms","value":0\b' build/bench/BENCH_calibration.json

step "Bench JSON: fig5 sweep emits BENCH_fig5.json"
AQUA_BENCH_SEEDS=1 build/bench/fig5_timing_failures >/dev/null
test -s build/bench/BENCH_fig5.json
grep -q '"metric":' build/bench/BENCH_fig5.json

step "Bench JSON: transport round-trip emits BENCH_transport.json"
build/bench/transport_roundtrip >/dev/null
test -s build/bench/BENCH_transport.json
grep -q '"metric":"udp_rtt_us"' build/bench/BENCH_transport.json
# Acks ride on the next DATA frame: a ping-pong costs 2 datagrams, not 4.
grep -o '"metric":"udp_datagrams_per_roundtrip","value":[0-9.e+-]*' \
  build/bench/BENCH_transport.json | cut -d: -f3 |
  awk '{exit !($1 <= 2.5)}' ||
  { echo "FAIL: udp_datagrams_per_roundtrip above 2.5"; exit 1; }
# Allocation budget for the wire, counted on every thread: a ping-pong
# reads 10.02 (the transport's one frame buffer per DATA frame, plus the
# payloads both sides build and decode). Later changes may only lower it.
grep -o '"metric":"udp_allocs_per_roundtrip","value":[0-9.e+-]*' \
  build/bench/BENCH_transport.json | cut -d: -f3 |
  awk '{exit !($1 <= 10.05)}' ||
  { echo "FAIL: udp_allocs_per_roundtrip above 10.05"; exit 1; }
# A threaded replica serves queued copies back to back at its service
# model's rate: its worker's wake-up and reply send must not delay the
# next copy. Release only; sanitizer overheads would dominate.
grep -o '"metric":"replica_batch_pacing","value":[0-9.e+-]*' \
  build/bench/BENCH_transport.json | cut -d: -f3 |
  awk '{exit !($1 <= 1.1)}' ||
  { echo "FAIL: replica_batch_pacing above 1.1"; exit 1; }

step "Bench JSON: hedging crossover emits BENCH_hedging.json"
AQUA_BENCH_SEEDS=1 build/bench/hedging_crossover >/dev/null
test -s build/bench/BENCH_hedging.json
grep -q '"metric":"low_load.hedged.replica_savings_vs_multicast"' \
  build/bench/BENCH_hedging.json
grep -q '"metric":"high_load.cancel.replica_savings_vs_multicast"' \
  build/bench/BENCH_hedging.json

step "Bench JSON: coded vs replicated emits BENCH_coded.json (identity gate)"
AQUA_BENCH_SEEDS=1 build/bench/coded_vs_replicated >/dev/null
test -s build/bench/BENCH_coded.json
grep -q '"metric":"mid_load.coded.replica_ms_per_request"' build/bench/BENCH_coded.json
grep -q '"metric":"high_load.coded_informed.replica_savings_vs_replicated"' \
  build/bench/BENCH_coded.json
# first_of_n must stay bit-identical to the paper policy on fig4/fig5.
grep -q '"metric":"fig.first_of_n_identity","value":1\b' build/bench/BENCH_coded.json
# The herd-safe gates: a DISABLED load score (garbage knobs) must also be
# bit-identical to the paper policy, and the load-compensated informed
# placement must no longer lose to blind spreading at high load.
grep -q '"metric":"fig.load_score_off_identity","value":1\b' build/bench/BENCH_coded.json
grep -q '"metric":"high_load.informed_beats_blind","value":1\b' build/bench/BENCH_coded.json

step "Bench JSON: selection oscillation emits BENCH_oscillation.json (herding gate)"
AQUA_BENCH_SEEDS=1 build/bench/selection_oscillation >/dev/null
test -s build/bench/BENCH_oscillation.json
# The load score must damp multi-gateway queue oscillation without
# giving back timeliness.
grep -q '"metric":"oscillation.amplitude_reduced","value":1\b' \
  build/bench/BENCH_oscillation.json
grep -q '"metric":"oscillation.timely_no_worse","value":1\b' \
  build/bench/BENCH_oscillation.json

step "UDP smoke: two-process gateway/replica run over loopback"
ctest --test-dir build --output-on-failure -R udp_two_process_smoke

step "Golden Perfetto: same seed => byte-identical trace JSON"
GOLD_DIR="$(mktemp -d)"
trap 'rm -rf "${GOLD_DIR}"' EXIT
build/tools/aqua_experiment --seed 4242 --requests 20 --replicas 5 \
  --perfetto "${GOLD_DIR}/a.json" >/dev/null
build/tools/aqua_experiment --seed 4242 --requests 20 --replicas 5 \
  --perfetto "${GOLD_DIR}/b.json" >/dev/null
cmp "${GOLD_DIR}/a.json" "${GOLD_DIR}/b.json"

step "Golden handler comparison: the Release build prints the committed table"
build/bench/handler_comparison >"${GOLD_DIR}/handler_comparison.txt"
cmp bench/golden/handler_comparison.txt "${GOLD_DIR}/handler_comparison.txt"

step "Scrape smoke test: live /metrics during a threaded run"
SCRAPE_PORT=19317
build/tools/aqua_experiment --threaded --requests 40 --think 50 --deadline 60 \
  --replicas 3 --clients 2 --scrape-port "${SCRAPE_PORT}" --serve-seconds 2 \
  >"${GOLD_DIR}/threaded.log" &
EXPERIMENT_PID=$!
SCRAPE_BODY=""
for _ in $(seq 1 40); do
  if SCRAPE_BODY="$(exec 3<>"/dev/tcp/127.0.0.1/${SCRAPE_PORT}" &&
      printf 'GET /metrics HTTP/1.0\r\n\r\n' >&3 && cat <&3 && exec 3<&-)"; then
    [ -n "${SCRAPE_BODY}" ] && break
  fi
  sleep 0.25
done
wait "${EXPERIMENT_PID}"
printf '%s\n' "${SCRAPE_BODY}" | grep -q '200 OK'
printf '%s\n' "${SCRAPE_BODY}" | grep -q '^# TYPE aqua_'

step "Calibration scrape: /calibration serves the tracker after a sim run"
build/tools/aqua_experiment --seed 7 --requests 30 --replicas 4 \
  --scrape-port "${SCRAPE_PORT}" --serve-seconds 2 \
  >"${GOLD_DIR}/calibration.log" &
EXPERIMENT_PID=$!
CAL_BODY=""
for _ in $(seq 1 40); do
  if CAL_BODY="$(exec 3<>"/dev/tcp/127.0.0.1/${SCRAPE_PORT}" &&
      printf 'GET /calibration HTTP/1.0\r\n\r\n' >&3 && cat <&3 && exec 3<&-)"; then
    [ -n "${CAL_BODY}" ] && break
  fi
  sleep 0.25
done
wait "${EXPERIMENT_PID}"
printf '%s\n' "${CAL_BODY}" | grep -q '200 OK'
printf '%s\n' "${CAL_BODY}" | grep -q '"enabled":true'
printf '%s\n' "${CAL_BODY}" | grep -q '"drift":'

step "Bench JSON: fleet report emits BENCH_fleet.json (stitch + conservation gate)"
build/bench/fleet_report >/dev/null
test -s build/bench/BENCH_fleet.json
grep -q '"metric":"stitch_completeness_pct"' build/bench/BENCH_fleet.json
grep -q '"metric":"merge_conservation","value":1\b' build/bench/BENCH_fleet.json
grep -q '"metric":"unreachable_nodes","value":0\b' build/bench/BENCH_fleet.json

step "Fleet smoke: gateway + 2 replica processes over UDP, collector stitches across them"
# Ports offset by PID like tests/udp_smoke_test.sh, so parallel runs do
# not collide.
FLEET_UDP_A=$((42000 + ($$ % 5000)))
FLEET_UDP_B=$((FLEET_UDP_A + 1))
FLEET_SCRAPE_A=$((FLEET_UDP_A + 2))
FLEET_SCRAPE_B=$((FLEET_UDP_A + 3))
FLEET_SCRAPE_G=$((FLEET_UDP_A + 4))
build/tools/aqua_experiment --transport udp --listen "127.0.0.1:${FLEET_UDP_A}" \
  --replica-id 1 --service-mean 2 --run-seconds 30 --scrape-port "${FLEET_SCRAPE_A}" \
  >"${GOLD_DIR}/fleet_replica_a.log" &
FLEET_REPLICA_A=$!
build/tools/aqua_experiment --transport udp --listen "127.0.0.1:${FLEET_UDP_B}" \
  --replica-id 2 --service-mean 2 --run-seconds 30 --scrape-port "${FLEET_SCRAPE_B}" \
  >"${GOLD_DIR}/fleet_replica_b.log" &
FLEET_REPLICA_B=$!
trap 'rm -rf "${GOLD_DIR}"; kill "${FLEET_REPLICA_A}" "${FLEET_REPLICA_B}" 2>/dev/null || true; wait 2>/dev/null || true' EXIT
sleep 1
build/tools/aqua_experiment --transport udp \
  --peer "127.0.0.1:${FLEET_UDP_A}" --peer "127.0.0.1:${FLEET_UDP_B}" \
  --requests 40 --deadline 100 --think 1 \
  --scrape-port "${FLEET_SCRAPE_G}" --serve-seconds 10 \
  >"${GOLD_DIR}/fleet_gateway.log" &
FLEET_GATEWAY=$!
FLEET_JSON="${GOLD_DIR}/fleet.json"
STITCHED=0
for _ in $(seq 1 40); do
  build/tools/aqua_top --fleet "${FLEET_SCRAPE_G},${FLEET_SCRAPE_A},${FLEET_SCRAPE_B}" \
    --once --json "${FLEET_JSON}" >/dev/null 2>&1 || true
  STITCHED="$(grep -o '"traces_stitched":[0-9]*' "${FLEET_JSON}" 2>/dev/null |
    head -1 | cut -d: -f2 || true)"
  [ "${STITCHED:-0}" -ge 1 ] && break
  sleep 0.25
done
[ "${STITCHED:-0}" -ge 1 ] || { echo "FAIL: no fully-stitched cross-process trace"; exit 1; }
# Let the workload drain, then take the quiescent snapshot the numeric
# checks below run against.
sleep 2
build/tools/aqua_top --fleet "${FLEET_SCRAPE_G},${FLEET_SCRAPE_A},${FLEET_SCRAPE_B}" \
  --once --json "${FLEET_JSON}" >/dev/null
grep -o '"completeness":[0-9.]*' "${FLEET_JSON}" | head -1 |
  awk -F: '{exit !($2 >= 0.95)}' ||
  { echo "FAIL: stitch completeness below 0.95"; exit 1; }
# Merged fleet counter == sum of the replicas' own raw /metrics totals.
MERGED_REQUESTS="$(grep -o '"replica\.requests":[0-9]*' "${FLEET_JSON}" |
  head -1 | cut -d: -f2)"
NODE_SUM=0
for FLEET_PORT in "${FLEET_SCRAPE_A}" "${FLEET_SCRAPE_B}"; do
  NODE_BODY="$(exec 3<>"/dev/tcp/127.0.0.1/${FLEET_PORT}" &&
    printf 'GET /metrics HTTP/1.0\r\n\r\n' >&3 && cat <&3 && exec 3<&-)"
  NODE_VALUE="$(printf '%s\n' "${NODE_BODY}" |
    awk '/^aqua_replica_requests /{print int($2)}')"
  NODE_SUM=$((NODE_SUM + NODE_VALUE))
done
[ "${MERGED_REQUESTS}" -eq "${NODE_SUM}" ] ||
  { echo "FAIL: merged replica.requests=${MERGED_REQUESTS}, node sum=${NODE_SUM}"; exit 1; }
wait "${FLEET_GATEWAY}"
kill "${FLEET_REPLICA_A}" "${FLEET_REPLICA_B}" 2>/dev/null || true

step "Configure + build: ThreadSanitizer (build-tsan/)"
cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DENABLE_TSAN=ON >/dev/null
cmake --build build-tsan -j "${JOBS}"

step "Chaos tier: ctest -L fault (TSan)"
ctest --test-dir build-tsan --output-on-failure -j "${JOBS}" -L fault

step "Telemetry tier: ctest -L obs (TSan)"
ctest --test-dir build-tsan --output-on-failure -j "${JOBS}" -L obs

step "Transport conformance (Lan on both clocks, UDP) + threaded runtime (TSan)"
ctest --test-dir build-tsan --output-on-failure -j "${JOBS}" \
  -R 'SimConformance|UdpConformance|LocalConformance|RuntimeTransportTest|UdpRegressionTest|ThreadedClientTest|ThreadedReplicaTest|ThreadedLanTest|ReplicaCore'

step "Configure + build: AddressSanitizer + UndefinedBehaviorSanitizer (build-asan/)"
cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DENABLE_ASAN=ON -DENABLE_UBSAN=ON \
  >/dev/null
cmake --build build-asan -j "${JOBS}"

step "Tier-1 ctest (ASan+UBSan)"
ctest --test-dir build-asan --output-on-failure -j "${JOBS}"

step "Chaos tier: ctest -L fault (ASan+UBSan)"
ctest --test-dir build-asan --output-on-failure -j "${JOBS}" -L fault

step "Transport conformance + UDP runtime (ASan+UBSan)"
ctest --test-dir build-asan --output-on-failure -j "${JOBS}" \
  -R 'SimConformance|UdpConformance|LocalConformance|RuntimeTransportTest|UdpRegressionTest|ThreadedLanTest'

step "All checks passed"
