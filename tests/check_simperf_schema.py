#!/usr/bin/env python3
"""Validate BENCH_simperf.json against its schema.

Runs as a ctest test (label `perf`) ordered after perf_simperf_smoke,
which writes the file. Pure stdlib on purpose: CI validates the bench's
trajectory record without any package installs.
"""

import json
import sys

EXPECTED_SCHEMA = 9

# section -> keys that must be present (values are checked to be of the
# right shape, not of any particular magnitude: wall-clock numbers are
# machine-dependent by design).
REQUIRED = {
    "pregen": ["cold_seconds", "warm_seconds", "warm_speedup"],
    "compress": [
        "serial_seconds",
        "parallel_seconds",
        "scalar_seconds",
        "workers",
        "speedup",
        "simd_backend",
        "simd_speedup",
    ],
    "decode": [
        "kernel_default",
        "checked_blocks_per_sec",
        "lut_blocks_per_sec",
        "lut2_blocks_per_sec",
        "batched_blocks_per_sec",
        "checked_ns_per_block",
        "lut_ns_per_block",
        "lut2_ns_per_block",
        "batched_ns_per_block",
        "batched_speedup",
    ],
    "hostpf": [
        "slots",
        "lru_blocks_per_sec",
        "fetcher_blocks_per_sec",
        "warm_refill_speedup",
        "prefetch_issued",
        "prefetch_hits",
        "prefetch_hit_rate",
    ],
    "simulation": [
        "native_insns_per_sec",
        "native_replay_insns_per_sec",
        "codepack_opt_insns_per_sec",
        "codepack_opt_replay_insns_per_sec",
        "inorder_insns_per_sec",
        "inorder_replay_insns_per_sec",
    ],
    "matrix": [
        "runs",
        "insns_per_run",
        "serial_seconds",
        "parallel_seconds",
        "workers",
        "speedup",
        "live_seconds",
        "replay_seconds",
        "replay_speedup",
    ],
    "chunked": [
        "chunk_insns",
        "insns_per_sec_1t",
        "insns_per_sec_2t",
        "insns_per_sec_4t",
        "insns_per_sec_8t",
        "speedup_8t_vs_serial_replay",
        "accuracy",
    ],
}


def fail(msg):
    print("check_simperf_schema: FAIL: " + msg)
    sys.exit(1)


def main():
    path = sys.argv[1] if len(sys.argv) > 1 else "BENCH_simperf.json"
    try:
        with open(path) as f:
            doc = json.load(f)
    except FileNotFoundError:
        fail(path + " not found (did perf_simperf_smoke run here?)")
    except json.JSONDecodeError as e:
        fail(path + " is not valid JSON: " + str(e))

    if doc.get("schema") != EXPECTED_SCHEMA:
        fail(
            "schema is %r, expected %d"
            % (doc.get("schema"), EXPECTED_SCHEMA)
        )

    for section, keys in REQUIRED.items():
        if section not in doc:
            fail("missing section %r" % section)
        for key in keys:
            if key not in doc[section]:
                fail("missing key %r in section %r" % (key, section))

    dec = doc["decode"]
    if dec["kernel_default"] not in ("checked", "lut", "lut2"):
        fail("decode.kernel_default %r is not a known kernel"
             % dec["kernel_default"])
    if doc["compress"]["simd_backend"] not in ("sse2", "neon", "scalar"):
        fail("compress.simd_backend %r is not a known backend"
             % doc["compress"]["simd_backend"])
    for key in (
        "checked_blocks_per_sec",
        "lut_blocks_per_sec",
        "lut2_blocks_per_sec",
        "batched_blocks_per_sec",
    ):
        if not (isinstance(dec[key], (int, float)) and dec[key] > 0):
            fail("decode.%s should be a positive number, got %r"
                 % (key, dec[key]))

    pf = doc["hostpf"]
    for key in (
        "slots",
        "lru_blocks_per_sec",
        "fetcher_blocks_per_sec",
        "warm_refill_speedup",
    ):
        if not (isinstance(pf[key], (int, float)) and pf[key] > 0):
            fail("hostpf.%s should be a positive number, got %r"
                 % (key, pf[key]))
    if pf["prefetch_hits"] > pf["prefetch_issued"]:
        fail("hostpf claims more prefetch hits than issued")
    if not 0.0 <= pf["prefetch_hit_rate"] <= 1.0:
        fail("hostpf.prefetch_hit_rate %r outside [0, 1]"
             % pf["prefetch_hit_rate"])

    # The "softerr" section is merged by bench_ext_soft_errors, which
    # runs separately from the smoke bench; validate it when present.
    if "softerr" in doc:
        se = doc["softerr"]
        for key in (
            "trials_per_kind",
            "upsets_per_profile",
            "profiles",
            "none_upsets",
            "none_silent_wrong",
            "none_silent_rate",
            "protected_silent_wrong",
            "secded_upsets",
            "secded_corrected",
            "secded_refetched",
            "secded_detected",
            "secded_cost_pct_mean",
            "check_cycles",
            "correct_cycles",
            "refetch_cycles_mean",
        ):
            if key not in se:
                fail("missing key %r in section 'softerr'" % key)
        if se["protected_silent_wrong"] != 0:
            fail("softerr.protected_silent_wrong is %r: protection "
                 "must kill every silent escape" % se["protected_silent_wrong"])
        if not 0.0 <= se["none_silent_rate"] <= 1.0:
            fail("softerr.none_silent_rate %r outside [0, 1]"
                 % se["none_silent_rate"])

    acc = doc["chunked"]["accuracy"]
    if not (isinstance(acc, list) and len(acc) == 3):
        fail("chunked.accuracy should be a list of 3 entries")
    for entry in acc:
        for key in ("warmup", "max_ipc_delta", "max_missrate_delta"):
            if key not in entry:
                fail("missing key %r in chunked.accuracy entry" % key)

    print("check_simperf_schema: OK (schema %d)" % EXPECTED_SCHEMA)


if __name__ == "__main__":
    main()
