#!/usr/bin/env python3
"""flbench: the repository benchmark (see flbench/README.md).

    python3 flbench/run.py --workload flat_tcp --seed 1 --seconds 12 --trace 0

Builds the program and the generator from source (Release, into
.bench_build/), runs the workload's sessions for --seconds, checks every
session against an flsim reference run, and prints one JSON object as the
last stdout line: end-to-end metrics with --trace 0, per-layer metrics with
--trace 1. Exits non-zero without a result when it cannot build or run.
"""

import argparse
import json
import os
import pty
import shutil
import subprocess
import sys
import threading
import time
import tty
from concurrent.futures import ThreadPoolExecutor

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import benchlib as bl  # noqa: E402

BUILD = os.path.join(ROOT, ".bench_build", "flbench")
WORK = os.path.join(ROOT, ".bench_build", "work")
GEN = os.path.join(BUILD, "flbench_gen")
FLSIM = os.path.join(BUILD, "adafl", "cli", "flsim")
FLSERVER = os.path.join(BUILD, "adafl", "cli", "flserver")
NPROC = os.cpu_count() or 1

# Deployed flat task: a CIFAR-shaped MLP (3x16x16 -> 64 -> 10, 49,866
# parameters), one local step, so transport and protocol dominate.
FLAT_TASK = ["--dataset=cifar10", "--model=mlp", "--dist=noniid",
             "--clients=4", "--k=3", "--steps=1", "--rounds=40"]

# "sessions" is how many sessions every run makes whatever --seconds is: the
# accuracy, byte and delivery metrics average over exactly those task seeds,
# and later sessions only add wall-clock samples.
WORKLOADS = {
    # The paper's experiment: CNN on MNIST-like data, 10 non-IID clients,
    # k=5, mixed links, in flsim --algo=adafl-sync (AdaFlSyncTrainer). One
    # training thread: on a shared 4-vCPU machine, four busy threads ask for
    # more CPU than the hypervisor grants (steal rose from under 0.01 of the
    # machine at one thread to up to 0.17 at four), and the barrier-
    # synchronised training loop turns every stolen slice into a stall.
    "sim_cnn": {
        "kind": "sim",
        "sessions": 3,
        "threads": 1,
        "task": ["--dataset=mnist", "--model=cnn", "--dist=noniid",
                 "--clients=10", "--k=5", "--rounds=40"],
        "sim": ["--network=mixed"],
    },
    "flat_tcp": {
        "kind": "clients",
        "sessions": 8,
        "task": FLAT_TASK,
        "server": ["--nudge-ms=0"],
        "gen": ["--transport=tcp"],
    },
    # flserver's default FEC flags (k=16, r=4, 1200-byte shards); 5% i.i.d.
    # loss on every client-sent datagram. A generation that loses more than
    # r datagrams waits for the retransmit nudge, tightened from the 2 s
    # default (as scripts/loss_sweep.sh does for TCP) so a stall costs a
    # measured recovery, not a sleep quantum. Half of flat_tcp's rounds, so
    # that a run's medians rest on more sessions: stalls vary from seed to
    # seed, and a session whose HELLO is lost waits out the client's 8 s
    # liveness timeout (README.md, "Findings").
    "lossy_udp": {
        "kind": "clients",
        "sessions": 5,
        "task": FLAT_TASK[:-1] + ["--rounds=20"],
        "server": ["--transport=udp", "--nudge-ms=300"],
        "gen": ["--transport=udp", "--dgram-loss=0.05"],
    },
    # 2 relays x 500 leaves under a root with agg_group 50; the tiny MNIST
    # MLP of scripts/server_scaling_soak.sh, with k=100 and lr=0.3 so that
    # eight rounds move accuracy well clear of chance. The root keeps flserver's
    # default retransmit nudge: relays bind after round 1 has opened, and
    # only a nudge delivers them MODEL(1) (see README.md, "Findings").
    "tier_fleet": {
        "kind": "fleet",
        "sessions": 2,
        "task": ["--dataset=mnist", "--model=mlp", "--dist=noniid",
                 "--clients=1000", "--rounds=8", "--train-samples=4000",
                 "--test-samples=2000", "--batch=8", "--steps=1", "--k=100",
                 "--lr=0.3", "--agg-group=50"],
        "server": [],
        "gen": [],
    },
}

# Seconds-long variants of each task for the self-tests (--toy).
TOY = {
    "sim_cnn": {"--rounds": "3"},
    "flat_tcp": {"--rounds": "3"},
    "lossy_udp": {"--rounds": "3"},
    "tier_fleet": {"--clients": "100", "--rounds": "2",
                   "--train-samples": "800", "--k": "10"},
}


def toy_spec(name):
    spec = dict(WORKLOADS[name], sessions=1)
    over = TOY[name]
    spec["task"] = [a if a.split("=")[0] not in over
                    else f"{a.split('=')[0]}={over[a.split('=')[0]]}"
                    for a in spec["task"]]
    return spec


END_TO_END = {
    "setup_s": "s", "round_s": "s", "train_s": "s",
    "final_accuracy": "fraction", "up_bytes_per_round": "B",
    "down_bytes_per_round": "B", "updates_delivered_frac": "fraction",
    "cpu_s_per_round": "s", "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "data.build_s": "s", "nn.train_step_s": "s", "nn.eval_s": "s",
    "fl.train_s": "s", "core.score_s": "s", "core.plan_s": "s",
    "core.apply_s": "s", "core.partial_agg_s": "s", "core.checkpoint_s": "s",
    "core.checkpoint_bytes": "B", "compress.dgc_s": "s",
    "compress.serialize_s": "s", "compress.deserialize_s": "s",
    "compress.ratio": "x", "transport.model_encode_s": "s",
    "transport.model_parse_s": "s", "transport.update_encode_s": "s",
    "transport.update_parse_s": "s", "transport.model_frame_bytes": "B",
    "transport.update_frame_bytes": "B", "transport.frames_per_round": "count",
    "transport.send_s": "s", "transport.join_s": "s",
    "transport.join_wait_p50_s": "s", "transport.join_wait_max_s": "s",
    "transport.select_wait_s": "s", "transport.model_wait_s": "s",
    "transport.duplicates_per_round": "count", "transport.reconnects": "count",
    "fec.parity_bytes_per_round": "B", "fec.lost_per_round": "count",
    "fec.repaired_frac": "fraction", "fec.unrecoverable_per_round": "count",
    "fec.encode_s": "s", "fec.reconstruct_s": "s",
    "relay.cpu_s_per_round": "s", "relay.aggs_per_round": "count",
    "relay.agg_frame_bytes": "B", "relay.agg_encode_s": "s",
    "relay.agg_parse_s": "s", "server.cpu_s_per_round": "s",
    "server.busy_frac": "fraction", "metrics.trace_overhead_frac": "fraction",
    "tail.round_p75_s": "s", "tail.round_p90_s": "s",
}

# Extra launches per run that only measure setup_s, so that its median rests
# on many samples even when few sessions fit in a run. They are spread over
# the fixed sessions: on a shared machine set-up time runs fast or slow in
# streaks of several launches (the two differ by up to half), and samples
# taken in one burst would all see the same streak.
SETUP_SAMPLES = 16

# round_s and train_s come from the sessions whose host steal share was
# within this much of the run's quietest session. The hypervisor of a shared
# machine steals CPU in bursts; a session it hit can take twice as long
# while its CPU time barely moves.
QUIET_STEAL = 0.02


class BenchError(Exception):
    """The benchmark cannot produce a result (build or harness failure)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# --- build ------------------------------------------------------------------

def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no program sources next to flbench/ (src/ missing)")
    for var in ("CXXFLAGS", "LDFLAGS"):
        if "-fsanitize" in os.environ.get(var, ""):
            raise BenchError(f"refusing to record a sanitizer build ({var})")
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(ROOT, ".bench_build", "build.log"), "a") as out:
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=out, stderr=out, check=True)
        subprocess.run(["cmake", "--build", BUILD, "-j", str(NPROC),
                        "--target", "flbench_gen", "flsim", "flserver"],
                       stdout=out, stderr=out, check=True)
    with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
        cache = f.read()
    build_type = ""
    for line in cache.splitlines():
        if line.startswith("CMAKE_BUILD_TYPE:"):
            build_type = line.split("=", 1)[1]
        if line.startswith("CMAKE_CXX_FLAGS") and "-fsanitize" in line:
            raise BenchError("refusing to record a sanitizer build")
    if build_type not in ("Release", "RelWithDebInfo"):
        raise BenchError(f"refusing to record a {build_type or 'default'} "
                         "build")
    return build_type


def host_cpu_ticks():
    """(steal, total) jiffies of the whole machine from /proc/stat."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def git_describe():
    try:
        r = subprocess.run(["git", "-C", ROOT, "describe", "--always",
                            "--dirty", "--tags"], capture_output=True,
                           text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


# --- processes --------------------------------------------------------------

class Proc:
    """A program under test whose stdout lines are timestamped on arrival
    and whose CPU and peak memory come from the kernel when it is reaped.

    The first line that starts with `marker` says the program is ready
    (flserver's `listening-on:`, flsim's `run-config:`); its arrival time
    and the program's CPU time at that moment are kept. flsim does not
    flush its stdout into a pipe, so with use_pty=True it writes into a
    pseudo-terminal instead, where every line is flushed as it ends.
    """

    def __init__(self, argv, workdir, marker, use_pty=False):
        self.marker = marker
        self.lines = []  # (arrival, text)
        self.ready_s = None
        self.ready_cpu_s = None
        self.ready_line = None
        self.ready = threading.Event()
        self.rusage = None
        self.err = open(os.path.join(workdir, "proc.err"), "w")
        self.launch_s = time.monotonic()
        if use_pty:
            self.fd, slave = pty.openpty()
            tty.setraw(slave)  # no "\r\n" translation
            self.proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL,
                                         stdout=slave, stderr=self.err)
            os.close(slave)
        else:
            self.proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL,
                                         stdout=subprocess.PIPE,
                                         stderr=self.err)
            self.fd = os.dup(self.proc.stdout.fileno())
            self.proc.stdout.close()
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()

    def _read(self):
        pending = b""
        while True:
            try:
                chunk = os.read(self.fd, 65536)
            except OSError:  # EIO: the pty's last writer has gone
                break
            if not chunk:
                break
            now = time.monotonic()
            *done, pending = (pending + chunk).split(b"\n")
            for raw in done:
                line = raw.decode(errors="replace")
                if self.ready_s is None and line.startswith(self.marker):
                    self.ready_cpu_s = bl.proc_cpu_s(self.proc.pid)
                    self.ready_s = now
                    self.ready_line = line
                    self.ready.set()
                self.lines.append((now, line))
        self.ready.set()

    def wait_ready(self, timeout):
        self.ready.wait(timeout)
        return self.ready_s is not None

    def text(self):
        return [line for _, line in self.lines]

    def first_line_after_ready(self):
        """Arrival time of the first line the program printed after its
        ready line (None if there was none)."""
        for t, line in self.lines:
            if t >= self.ready_s and line != self.ready_line:
                return t
        return None

    def reap(self, timeout):
        """Waits for exit; returns the exit code (killing after timeout)."""
        deadline = time.monotonic() + timeout
        while True:
            pid, status, ru = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                self.rusage = ru
                self.proc.returncode = os.waitstatus_to_exitcode(status)
                break
            if time.monotonic() > deadline and self.proc.returncode is None:
                self.proc.kill()  # reaped on a later pass
                self.proc.returncode = -9
            time.sleep(0.005)
        self.reader.join(5)
        os.close(self.fd)
        self.err.close()
        return self.proc.returncode

    def cpu_s(self):
        return self.rusage.ru_utime + self.rusage.ru_stime

    def peak_rss_mb(self):
        return self.rusage.ru_maxrss / 1024.0  # Linux reports KiB


def run_json(argv, timeout):
    """Runs a generator command and returns its last-line JSON and code."""
    try:
        r = subprocess.run(argv, capture_output=True, text=True,
                           timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, -1, "timed out"
    lines = r.stdout.strip().splitlines()
    if not lines:
        return None, r.returncode, r.stderr[-2000:]
    try:
        return json.loads(lines[-1]), r.returncode, r.stderr[-2000:]
    except json.JSONDecodeError:
        return None, r.returncode, r.stderr[-2000:]


LEDGER = {"selected": "comm.attempted_updates",
          "delivered": "comm.delivered_updates",
          "up_bytes": "comm.upload_bytes", "down_bytes": "comm.download_bytes"}


def ledger(workdir):
    """The program's CommLedger counters from its --metrics file, or None
    when it wrote none or selected no update."""
    try:
        with open(os.path.join(workdir, "metrics.json")) as f:
            reg = json.load(f)
    except (OSError, ValueError):
        return None
    out = {k: bl.find_counter(reg, name) for k, name in LEDGER.items()}
    if None in out.values() or out["selected"] <= 0:
        return None
    return out


# --- sessions ---------------------------------------------------------------

def session_dir(workload, seed, index):
    d = os.path.join(WORK, f"{workload}-{seed}-{index}")
    shutil.rmtree(d, ignore_errors=True)
    os.makedirs(os.path.join(d, "ckpt"))
    return d


def flsim_argv(spec, task_seed, threads):
    return [FLSIM, "--algo=adafl-sync", *spec["task"], *spec.get("sim", []),
            f"--seed={task_seed}", f"--threads={threads}",
            "--kernel-backend=auto", "--chart=0"]


def run_sim_session(spec, task_seed, workdir):
    """flsim itself: set-up until its run-config line (task built), training
    until the next line it prints, CPU and peak memory from the kernel."""
    metrics_path = os.path.join(workdir, "metrics.json")
    sim = Proc(flsim_argv(spec, task_seed, spec["threads"]) +
               [f"--metrics={metrics_path}"], workdir, "run-config:",
               use_pty=True)
    code = sim.reap(90)
    if code != 0 or sim.ready_s is None:
        return {"ok": False, "why": f"flsim exit {code}"}
    end_s = sim.first_line_after_ready()
    kv = bl.parse_kv_lines(sim.text())
    counts = ledger(workdir)
    if end_s is None or counts is None or "weights-crc32" not in kv:
        return {"ok": False, "why": "flsim printed no result or ledger"}
    rounds = int(next(a for a in spec["task"]
                      if a.startswith("--rounds=")).split("=")[1])
    train_s = end_s - sim.ready_s
    return {
        "ok": True, "crc": kv["weights-crc32"],
        "accuracy": float(kv["final-accuracy"]),
        "setup_s": sim.ready_s - sim.launch_s,
        "train_s": train_s,
        # One call runs every round, so a round is train_s / rounds.
        "round_samples": [train_s / rounds],
        "rounds": rounds, "steady_rounds": rounds,
        "up_bytes": counts["up_bytes"], "down_bytes": counts["down_bytes"],
        "selected": counts["selected"], "delivered": counts["delivered"],
        "steady_cpu_s": sim.cpu_s() - sim.ready_cpu_s,
        "steady_wall_s": train_s,
        "peak_rss_mb": sim.peak_rss_mb(),
    }


def run_traced_sim_session(spec, task_seed, workdir):
    """The generator's copy of flsim's run, timed as a whole and gated on
    flsim's crc, followed by shadow rounds that time the layers."""
    out, rc, err = run_json([GEN, "sim", *spec["task"], f"--seed={task_seed}",
                             f"--threads={spec['threads']}",
                             f"--workdir={workdir}"], 90)
    if out is None or rc != 0:
        return {"ok": False, "why": f"generator exit {rc}: {err}"}
    return {
        "ok": True, "crc": out["weights_crc32"],
        # flsim prints accuracy with six decimals; compare like with like.
        "accuracy": float("%.6f" % out["final_accuracy"]),
        "train_s": out["train_s"], "round_samples": [],
        "rounds": out["rounds"], "steady_rounds": out["rounds"],
        "steady_cpu_s": out["cpu_train_s"], "steady_wall_s": out["train_s"],
        "timings": out["timings"], "gen": out,
    }


def run_deployed_session(spec, task_seed, trace, workdir):
    server_argv = [FLSERVER, *spec["task"], *spec["server"],
                   f"--seed={task_seed}", "--port=0",
                   f"--checkpoint-dir={os.path.join(workdir, 'ckpt')}",
                   f"--metrics={os.path.join(workdir, 'metrics.json')}",
                   "--kernel-backend=auto"]
    clients = int(next(a for a in spec["task"]
                       if a.startswith("--clients=")).split("=")[1])
    srv = Proc(server_argv, workdir, "listening-on: ")
    try:
        if not srv.wait_ready(60):
            return {"ok": False, "why": "flserver did not start listening"}
        port = int(srv.ready_line.split(": ", 1)[1])
        mode = "clients" if spec["kind"] == "clients" else "fleet"
        gen_argv = [GEN, mode, f"--port={port}",
                    f"--server-pid={srv.proc.pid}", f"--clients={clients}",
                    "--threads=1",
                    f"--loss-seed={task_seed}", f"--trace={int(trace)}",
                    f"--workdir={os.path.join(workdir, 'gen')}",
                    *spec["gen"]]
        out, rc, err = run_json(gen_argv, 75)
    finally:
        code = srv.reap(10)
    if out is None or rc != 0 or out.get("completed") != clients:
        return {"ok": False, "why": f"generator exit {rc}: {err}"}
    if code != 0:
        return {"ok": False, "why": f"flserver exit {code}"}
    counts = ledger(workdir)
    if counts is None:
        return {"ok": False, "why": "flserver wrote no update ledger"}
    kv = bl.parse_kv_lines(srv.text())
    fec = bl.parse_udp_fec(kv.get("udp-fec", ""))
    rounds = out["rounds"]
    steady = rounds - 1
    server_steady_cpu = srv.cpu_s() - out["server_cpu_r2"]
    steady_wall = out["t_end"] - out["t_cpu_r2"]
    relay_steady_cpu = 0.0
    if mode == "fleet":
        relay_steady_cpu = out["relay_cpu_s"] - out["relay_cpu_r2"]
    s = {
        "ok": True, "crc": kv.get("weights-crc32"),
        "accuracy": float(kv.get("final-accuracy", "nan")),
        "setup_s": srv.ready_s - srv.launch_s,
        "train_s": out["t_end"] - out["t_round1"],
        "join_s": out["t_last_welcome"] - out["t_start"],
        "round_samples": out["round_samples_s"],
        "rounds": rounds, "steady_rounds": steady,
        "up_bytes": out["up_bytes"], "down_bytes": out["down_bytes"],
        "selected": counts["selected"], "delivered": counts["delivered"],
        "steady_cpu_s": server_steady_cpu + relay_steady_cpu,
        "server_steady_cpu_s": server_steady_cpu,
        "steady_wall_s": steady_wall,
        "peak_rss_mb": srv.peak_rss_mb(),
        "fec": fec, "timings": out.get("timings", {}), "gen": out,
    }
    if trace:
        rep = out.get("replay", {})
        if rep.get("weights_crc32") != s["crc"]:
            return {"ok": False, "why": "traced replay missed the server's "
                    f"crc ({rep.get('weights_crc32')} vs {s['crc']})"}
        if rep.get("fec_ok") is False or rep.get("partial_ok") is False:
            return {"ok": False, "why": "replay probe mismatch"}
    return s


def measure_setup(spec, task_seed):
    """One launch that only measures setup_s (None if it failed)."""
    wd = os.path.join(WORK, "setup")
    shutil.rmtree(wd, ignore_errors=True)
    os.makedirs(os.path.join(wd, "ckpt"))
    if spec["kind"] == "sim":
        p = Proc(flsim_argv(spec, task_seed, spec["threads"]), wd,
                 "run-config:",
                 use_pty=True)
    else:
        p = Proc([FLSERVER, *spec["task"], *spec["server"],
                  f"--seed={task_seed}", "--port=0",
                  f"--checkpoint-dir={os.path.join(wd, 'ckpt')}",
                  "--kernel-backend=auto"], wd, "listening-on: ")
    ok = p.wait_ready(60)
    p.proc.kill()
    p.reap(10)
    return p.ready_s - p.launch_s if ok else None


def reference(spec, task_seed, threads):
    """flsim --algo=adafl-sync on the same flags: (crc, accuracy)."""
    try:
        r = subprocess.run(flsim_argv(spec, task_seed, threads),
                           capture_output=True, text=True, timeout=90)
    except subprocess.TimeoutExpired:
        return None
    kv = bl.parse_kv_lines(r.stdout.splitlines())
    if r.returncode != 0 or "weights-crc32" not in kv:
        return None
    return kv["weights-crc32"], float(kv["final-accuracy"])


# --- metrics ----------------------------------------------------------------

def quiet_sessions(sessions):
    least = min(s["steal"] for s in sessions)
    return [s for s in sessions if s["steal"] <= least + QUIET_STEAL]


def end_to_end(sessions, fixed, setups):
    """Round and train time over the quiet sessions; set-up, CPU and memory
    over every session; accuracy, bytes and delivery over the `fixed`
    sessions, whose task seeds do not depend on how many sessions fitted in
    the run."""
    quiet = quiet_sessions(sessions)
    steady = sum(s["steady_rounds"] for s in sessions)
    rounds = sum(s["rounds"] for s in fixed)
    return {
        "setup_s": bl.median([s["setup_s"] for s in sessions] + setups),
        "round_s": bl.median([x for s in quiet for x in s["round_samples"]]),
        "train_s": bl.median([s["train_s"] for s in quiet]),
        "final_accuracy": sum(s["accuracy"] for s in fixed) / len(fixed),
        "up_bytes_per_round": sum(s["up_bytes"] for s in fixed) / rounds,
        "down_bytes_per_round": sum(s["down_bytes"] for s in fixed) / rounds,
        "updates_delivered_frac": sum(s["delivered"] for s in fixed) /
        sum(s["selected"] for s in fixed),
        "cpu_s_per_round": sum(s["steady_cpu_s"] for s in sessions) / steady,
        "peak_rss_mb": bl.median([s["peak_rss_mb"] for s in sessions]),
    }


def per_layer(traced, untraced):
    t = {}
    for s in traced:
        for k, v in s["timings"].items():
            t.setdefault(k, []).extend(v)
    g = [s["gen"] for s in traced]
    rounds = sum(s["rounds"] for s in traced)
    steady = sum(s["steady_rounds"] for s in traced)

    def total(key):
        return sum(x.get(key, 0) for x in g)

    def ratio(a, b):
        return a / b if b else 0.0

    m = {k: bl.median_or_zero(t.get(k, [])) for k in PER_LAYER}
    joins = [x for x in g for x in x.get("join_wait_s", [])]
    fec = {}
    for s in traced:
        for k, v in s.get("fec", {}).items():
            fec[k] = fec.get(k, 0) + v
    server_cpu = sum(s.get("server_steady_cpu_s", s["steady_cpu_s"])
                     for s in traced)
    samples = [x for s in traced for x in s["round_samples"]]
    m.update({
        # The simulator runs its rounds in one call: no per-round samples.
        "tail.round_p75_s": bl.percentile(samples, 75) if samples else 0.0,
        "tail.round_p90_s": bl.percentile(samples, 90) if samples else 0.0,
        "core.checkpoint_bytes": bl.median_or_zero(
            t.get("core.checkpoint_bytes", [])),
        "transport.model_frame_bytes":
            ratio(total("model_frame_bytes"), total("model_frames")),
        "transport.update_frame_bytes":
            ratio(total("update_frame_bytes"), total("update_frames")),
        "transport.frames_per_round":
            ratio(total("frames_up") + total("frames_down"), rounds),
        "transport.join_s": bl.median_or_zero(
            [s["join_s"] for s in traced if "join_s" in s]),
        "transport.join_wait_p50_s": bl.median_or_zero(joins),
        "transport.join_wait_max_s": max(joins) if joins else 0.0,
        "transport.select_wait_s": bl.median_or_zero(
            [x for x in g for x in x.get("select_wait_s", [])]),
        "transport.model_wait_s": bl.median_or_zero(
            [x for x in g for x in x.get("model_wait_s", [])]),
        "transport.duplicates_per_round": ratio(total("duplicates"), rounds),
        "transport.reconnects": float(total("reconnects")),
        "fec.parity_bytes_per_round": ratio(total("parity_up_bytes"), rounds),
        "fec.lost_per_round": ratio(total("dgram_dropped"), rounds),
        "fec.repaired_frac": ratio(fec.get("datagrams-repaired", 0),
                                   fec.get("datagrams-lost", 0)),
        "fec.unrecoverable_per_round":
            ratio(fec.get("unrecoverable-generations", 0), rounds),
        "relay.cpu_s_per_round": ratio(total("relay_cpu_s"), rounds),
        "relay.aggs_per_round": ratio(total("relay_aggs"), rounds),
        "relay.agg_frame_bytes":
            ratio(total("relay_agg_bytes"), total("relay_agg_frames")),
        "server.cpu_s_per_round": ratio(server_cpu, steady),
        "server.busy_frac": ratio(server_cpu, sum(s["steady_wall_s"]
                                                  for s in traced)),
        "metrics.trace_overhead_frac":
            bl.median([s["train_s"] for s in traced]) /
            bl.median([s["train_s"] for s in untraced]) - 1.0,
    })
    return m


# --- main -------------------------------------------------------------------

def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Self-test knobs: a toy-size task, and a perturbed reference crc (the
    # gate's negative control).
    ap.add_argument("--toy", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--perturb-reference", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    spec = toy_spec(args.workload) if args.toy else WORKLOADS[args.workload]
    trace = bool(args.trace)

    build_type = build()
    os.makedirs(WORK, exist_ok=True)

    sessions = []
    steal0 = host_cpu_ticks()
    t0 = time.monotonic()
    # A traced run alternates untraced and traced sessions of one task
    # seed, so trace overhead compares like with like.
    fixed = 2 if trace else spec["sessions"]
    setups = []
    i = 0
    while i < fixed or time.monotonic() - t0 < args.seconds or (
            trace and i % 2 == 1):
        traced_session = trace and i % 2 == 1
        task_seed = bl.derive_seed(args.workload, args.seed,
                                   i // 2 if trace else i)
        wd = session_dir(args.workload, args.seed, i)
        before = host_cpu_ticks()
        if spec["kind"] != "sim":
            s = run_deployed_session(spec, task_seed, traced_session, wd)
        elif traced_session:
            s = run_traced_sim_session(spec, task_seed, wd)
        else:
            s = run_sim_session(spec, task_seed, wd)
        after = host_cpu_ticks()
        s["steal"] = (after[0] - before[0]) / max(1, after[1] - before[1])
        s["task_seed"] = task_seed
        s["traced"] = traced_session
        sessions.append(s)
        i += 1
        if not trace and i <= fixed:
            for _ in range(-(-SETUP_SAMPLES // fixed)):
                t = measure_setup(spec, task_seed)
                if t is not None:
                    setups.append(t)
    steal1 = host_cpu_ticks()

    # Correctness gate: every session against flsim on its own seed.
    seeds = sorted({s["task_seed"] for s in sessions})
    par = max(1, min(NPROC, len(seeds)))
    with ThreadPoolExecutor(par) as pool:
        refs = dict(zip(seeds, pool.map(
            # At least two threads: sim_cnn trains on one, so its gate also
            # checks that the result does not depend on the thread count.
            lambda sd: reference(spec, sd, max(2, NPROC // par)), seeds)))
    failed = 0
    for s in sessions:
        ref = refs.get(s["task_seed"])
        if s["ok"] and args.perturb_reference and ref:
            ref = ("%08x" % (int(ref[0], 16) ^ 1), ref[1])
        if not s["ok"]:
            log(f"session seed={s['task_seed']} failed: {s['why']}")
        elif ref is None:
            s["ok"] = False
            log(f"session seed={s['task_seed']}: flsim reference failed")
        elif (s["crc"], s["accuracy"]) != ref:
            s["ok"] = False
            log(f"session seed={s['task_seed']}: crc/accuracy "
                f"{s['crc']}/{s['accuracy']} != flsim {ref[0]}/{ref[1]}")
        failed += 0 if s["ok"] else 1

    good = [s for s in sessions if s["ok"]]
    good_fixed = [s for s in sessions[:fixed] if s["ok"]]
    stamp, _, _ = run_json([GEN, "stamp"], 30)
    stamp = stamp or {}
    stamp.update({"nproc": NPROC, "build_type": build_type,
                  "git_describe": git_describe(), "workload": args.workload,
                  "seed": args.seed, "sessions": len(sessions),
                  # Share of the machine's CPU time the hypervisor gave to
                  # other guests while this run measured; wall-clock
                  # metrics from runs with a high share are not comparable.
                  "host_steal_frac": (steal1[0] - steal0[0]) /
                  max(1, steal1[1] - steal0[1]),
                  # Sessions that round_s and train_s were taken from.
                  "quiet_sessions": len(quiet_sessions(good)) if good else 0})
    print("stamp: " + json.dumps(stamp, sort_keys=True))

    metrics = {}
    if trace:
        have = {s["traced"] for s in good} == {False, True}
    else:
        have = bool(good_fixed)
    if have:
        if trace:
            vals = per_layer([s for s in good if s["traced"]],
                             [s for s in good if not s["traced"]])
            units = PER_LAYER
        else:
            vals = end_to_end(good, good_fixed, setups)
            units = END_TO_END
        metrics = {k: {"value": vals[k], "unit": units[k]} for k in units}
    print(json.dumps({"correct": failed == 0, "attempted": len(sessions),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, subprocess.CalledProcessError, OSError) as e:
        log(f"flbench: {e}")
        sys.exit(2)
