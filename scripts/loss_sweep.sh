#!/usr/bin/env bash
# Packet-loss sweep and soak for the FEC-coded UDP transport.
#
# Modes:
#   soak   — one deployed UDP run at 10% iid datagram loss (k=8 data /
#            r=8 parity shards per generation). Asserts the run completes
#            with ZERO reconnects, ZERO retransmitted bytes and ZERO
#            unrecoverable generations (every loss repaired by FEC), that
#            repairs actually happened, and that the run's trace is
#            semantically identical to a clean flsim run of the same
#            experiment (scripts/trace_diff.py).
#   sweep  — loss in {0,5,10,15,20}% x transport in {tcp,udp}. TCP runs
#            inject persistent frame loss client-side and lean on the
#            session retransmit-nudge; UDP runs inject iid datagram loss
#            and lean on Reed-Solomon parity. Wall-clock round completion
#            time, goodput and CommLedger byte accounting are written to
#            bench_results/BENCH_udp_fec.json.
#
# Usage: scripts/loss_sweep.sh [build_dir] [soak|sweep]
set -euo pipefail

BUILD_DIR="${1:-build}"
MODE="${2:-sweep}"
CLI_DIR="$BUILD_DIR/src/cli"
SCRIPT_DIR="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
REPO_DIR="$(dirname "$SCRIPT_DIR")"

CLIENTS=4
ROUNDS=5
TASK_FLAGS=(--model=mlp --clients=$CLIENTS --rounds=$ROUNDS
            --train-samples=600 --test-samples=200 --seed=7)
# k=8 data + r=8 parity shards per generation: tolerates up to 50% loss
# within any one generation, so 20% iid loss keeps the per-generation
# failure probability (>8 of 16 shards lost) well under 1%.
FEC_FLAGS=(--fec-generation=8 --fec-parity=8 --fec-mtu=1200)

for bin in flsim flserver flclient; do
  if [[ ! -x "$CLI_DIR/$bin" ]]; then
    echo "error: $CLI_DIR/$bin not found (build first)" >&2
    exit 2
  fi
done

workdir="$(mktemp -d)"
server_pid=""
cleanup() {
  [[ -n "$server_pid" ]] && kill "$server_pid" 2>/dev/null || true
  rm -rf "$workdir"
}
trap cleanup EXIT

extract() { sed -n "s/^$2: //p" "$1" | head -n1; }

# run_deployed <dir> <transport> <loss> [extra server flags...]
# Starts flserver + $CLIENTS flclients; client-side loss injection is
# --dgram-loss (udp) or --frame-loss (tcp). Records wall-clock seconds
# from first client launch to server exit in $dir/elapsed.
run_deployed() {
  local dir="$1" transport="$2" loss="$3"
  shift 3
  mkdir -p "$dir"
  "$CLI_DIR/flserver" --port=0 --transport="$transport" "${TASK_FLAGS[@]}" \
    "${FEC_FLAGS[@]}" --metrics="$dir/server_metrics.json" "$@" \
    > "$dir/server.log" 2>&1 &
  server_pid=$!

  local port=""
  for _ in $(seq 1 100); do
    port="$(extract "$dir/server.log" listening-on)"
    [[ -n "$port" ]] && break
    if ! kill -0 "$server_pid" 2>/dev/null; then
      echo "error: flserver ($transport) exited early" >&2
      cat "$dir/server.log" >&2
      exit 1
    fi
    sleep 0.1
  done
  [[ -n "$port" ]] || { echo "error: no listening-on line" >&2; exit 1; }

  local loss_flags=()
  if [[ "$transport" == "udp" ]]; then
    loss_flags=(--dgram-loss="$loss" --dgram-loss-seed=4242)
  else
    loss_flags=(--frame-loss="$loss" --frame-loss-seed=4242)
  fi

  local t0 t1
  t0="$(date +%s.%N)"
  local client_pids=()
  local id
  for id in $(seq 0 $((CLIENTS - 1))); do
    "$CLI_DIR/flclient" --host=127.0.0.1 --port="$port" --id="$id" \
      --transport="$transport" "${FEC_FLAGS[@]}" "${loss_flags[@]}" \
      > "$dir/client$id.log" 2>&1 &
    client_pids+=($!)
  done
  local i
  for i in "${!client_pids[@]}"; do
    if ! wait "${client_pids[$i]}"; then
      echo "error: flclient $i ($transport, loss=$loss) failed" >&2
      cat "$dir/client$i.log" >&2
      exit 1
    fi
  done
  wait "$server_pid"
  server_pid=""
  t1="$(date +%s.%N)"
  python3 -c "print(f'{$t1 - $t0:.3f}')" > "$dir/elapsed"
}

if [[ "$MODE" == "soak" ]]; then
  echo "== udp-loss-soak: 10% iid datagram loss, k=8/r=8 =="
  echo "-- clean simulator reference (flsim --algo=adafl-sync) --"
  "$CLI_DIR/flsim" --algo=adafl-sync "${TASK_FLAGS[@]}" --chart=0 \
    --trace="$workdir/sim_trace.jsonl" | tee "$workdir/sim.log"
  sim_crc="$(extract "$workdir/sim.log" weights-crc32)"

  echo "-- deployed UDP run under 10% loss --"
  run_deployed "$workdir/soak" udp 0.10 --trace="$workdir/soak/trace.jsonl"
  cat "$workdir/soak/server.log"
  dep_crc="$(extract "$workdir/soak/server.log" weights-crc32)"

  if [[ -z "$sim_crc" || "$sim_crc" != "$dep_crc" ]]; then
    echo "FAIL: weights-crc32 mismatch (sim=$sim_crc deployed=$dep_crc)" >&2
    exit 1
  fi
  echo "weights-crc32 match: $dep_crc"

  python3 "$SCRIPT_DIR/trace_diff.py" \
    "$workdir/sim_trace.jsonl" "$workdir/soak/trace.jsonl"

  python3 - "$workdir/soak/server_metrics.json" <<'EOF'
import json, sys
m = json.load(open(sys.argv[1]))
checks = [
    ("comm.reconnects", m.get("comm.reconnects", -1) == 0),
    ("comm.retransmitted_bytes", m.get("comm.retransmitted_bytes", -1) == 0),
    ("comm.unrecoverable_generations",
     m.get("comm.unrecoverable_generations", -1) == 0),
    ("comm.datagrams_repaired > 0", m.get("comm.datagrams_repaired", 0) > 0),
    ("comm.datagrams_lost > 0", m.get("comm.datagrams_lost", 0) > 0),
    ("comm.parity_overhead_bytes > 0",
     m.get("comm.parity_overhead_bytes", 0) > 0),
]
ok = True
for name, passed in checks:
    print(f"  {'ok  ' if passed else 'FAIL'} {name}")
    ok = ok and passed
if not ok:
    sys.exit("soak metric assertions failed")
print("soak metrics: every loss repaired by FEC, zero round-trips spent")
EOF
  echo "PASS: udp-loss-soak"
  exit 0
fi

if [[ "$MODE" != "sweep" ]]; then
  echo "error: mode must be soak or sweep (got $MODE)" >&2
  exit 2
fi

echo "== loss sweep: {0,5,10,15,20}% x {tcp,udp}, $ROUNDS rounds =="
rows="$workdir/rows.jsonl"
: > "$rows"
base_crc=""
for loss in 0 0.05 0.10 0.15 0.20; do
  for transport in tcp udp; do
    dir="$workdir/sweep_${transport}_${loss}"
    extra=()
    # TCP recovery is the session retransmit-nudge; tighten it from the
    # 2 s default so lost-frame stalls are measured, not sleep quanta.
    [[ "$transport" == "tcp" ]] && extra=(--nudge-ms=300)
    echo "-- $transport loss=$loss --"
    run_deployed "$dir" "$transport" "$loss" "${extra[@]}"
    crc="$(extract "$dir/server.log" weights-crc32)"
    acc="$(extract "$dir/server.log" final-accuracy)"
    elapsed="$(cat "$dir/elapsed")"
    [[ -z "$base_crc" ]] && base_crc="$crc"
    if [[ -z "$crc" || "$crc" != "$base_crc" ]]; then
      echo "FAIL: $transport loss=$loss diverged (crc=$crc vs $base_crc)" >&2
      exit 1
    fi
    python3 - "$dir/server_metrics.json" "$transport" "$loss" "$elapsed" \
        "$acc" "$ROUNDS" >> "$rows" <<'EOF'
import json, sys
m = json.load(open(sys.argv[1]))
transport, loss, elapsed = sys.argv[2], float(sys.argv[3]), float(sys.argv[4])
acc, rounds = float(sys.argv[5]), int(sys.argv[6])
payload = m.get("comm.upload_bytes", 0) + m.get("comm.download_bytes", 0)
row = {
    "bench": "udp_fec_loss_sweep",
    "transport": transport,
    "loss": loss,
    "seconds": round(elapsed, 3),
    "round_seconds": round(elapsed / rounds, 3),
    "goodput_mbps": round(payload * 8 / elapsed / 1e6, 2),
    "final_accuracy": acc,
    "upload_bytes": m.get("comm.upload_bytes", 0),
    "download_bytes": m.get("comm.download_bytes", 0),
    "retransmitted_bytes": m.get("comm.retransmitted_bytes", 0),
    "reconnects": m.get("comm.reconnects", 0),
    "parity_overhead_bytes": m.get("comm.parity_overhead_bytes", 0),
    "datagrams_sent": m.get("comm.datagrams_sent", 0),
    "datagrams_lost": m.get("comm.datagrams_lost", 0),
    "datagrams_repaired": m.get("comm.datagrams_repaired", 0),
    "unrecoverable_generations": m.get("comm.unrecoverable_generations", 0),
}
print(json.dumps(row))
EOF
    tail -n1 "$rows"
  done
done

mkdir -p "$REPO_DIR/bench_results"
python3 - "$rows" "$REPO_DIR/bench_results/BENCH_udp_fec.json" \
    "${FEC_FLAGS[*]}" <<'EOF'
import json, os, sys
rows = [json.loads(line) for line in open(sys.argv[1])]
doc = {
    "hardware_concurrency": os.cpu_count(),
    "fec_flags": sys.argv[3],
    "note": ("round completion time and goodput vs iid loss rate, "
             "TCP+retransmit-nudge vs UDP+RS(16,8) FEC; weights bitwise "
             "identical across every cell"),
    "results": rows,
}
with open(sys.argv[2], "w") as f:
    json.dump(doc, f, indent=1)
    f.write("\n")
print(f"wrote {sys.argv[2]} ({len(rows)} rows)")
EOF
echo "PASS: loss sweep complete, weights identical across all cells"
