"""Tests for the benchmark's own logic: output checks, the percentile rule,
span self time, and the metric names BENCHMARK.json promises.

    python3 -m unittest discover -s perfbench/tests

They read only the committed files; nothing is built or run.
"""

import copy
import json
import pathlib
import sys
import unittest

HERE = pathlib.Path(__file__).resolve().parent
PERFBENCH = HERE.parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(PERFBENCH))

import analysis  # noqa: E402

DEFAULT_SEED = 1
HELD_OUT_SEED = 7


def load_groups(seed):
    with open(PERFBENCH / "expected" / f"seed-{seed}.json") as f:
        return json.load(f)["groups"]


def run_records(groups, pass_id=0):
    """Op and pass records a clean run of every group would emit."""
    records = []
    for op_id, (group, ops) in enumerate(sorted(groups.items())):
        for name, out in sorted(ops.items()):
            records.append({"t": "op", "group": group, "name": name,
                            "pass": pass_id, "id": op_id, "out": dict(out), "tm": {}})
    for group in analysis.WORKLOADS:
        records.append({"t": "pass", "workload": group, "pass": pass_id,
                        "traced": 0, "profile": 0, "wall_s": 1.0, "setup_s": 0.1,
                        "cal_s": analysis.CAL_REF_S, "cal": "bracket"})
    return records


def find_op(records, group, predicate=lambda name: True):
    return next(r for r in records
                if r["t"] == "op" and r["group"] == group and predicate(r["name"]))


class OutputChecks(unittest.TestCase):
    def setUp(self):
        self.expected = load_groups(DEFAULT_SEED)

    def test_recorded_run_passes(self):
        check = analysis.check_outputs(run_records(self.expected), self.expected)
        self.assertEqual(check.failed, 0, check.reasons[:3])
        self.assertEqual(check.attempted, sum(len(g) for g in self.expected.values()))

    def test_perturbed_seed_fails(self):
        # The held-out seed's recorded outputs are exactly what a run with
        # that seed produces; checked against the default seed's record,
        # every simulation and quality point must differ.
        held_out = load_groups(HELD_OUT_SEED)
        check = analysis.check_outputs(run_records(held_out), self.expected)
        self.assertGreater(check.failed / check.attempted, 0.5)
        for group in ("sim-alloc-heavy", "sim-light"):
            for name in held_out[group]:
                self.assertTrue(any(f.startswith(f"{group} {name} ")
                                    for f in check.reasons), name)

    def test_perturbed_output_fails(self):
        # A config change that moves one simulated statistic by one ulp.
        records = run_records(self.expected)
        op = find_op(records, "sim-light")
        lat = float(op["out"]["avg_packet_latency"])
        op["out"]["avg_packet_latency"] = repr(lat + lat * 2**-52)
        check = analysis.check_outputs(records, self.expected)
        self.assertEqual(check.failed, 1)
        self.assertIn("differs from recorded", check.reasons[0])

    def test_unrecorded_seed_checks_repeats_and_engines(self):
        records = run_records(self.expected)
        again = copy.deepcopy([r for r in records if r["t"] == "op"
                               and r["group"] == "sim-light"])
        for r in again:
            r["pass"] = 1
        again[0]["out"]["packets_measured"] = "1"
        stop = find_op(records, "fig-curves", lambda n: "/stop/" in n)
        stop["out"]["avg_packet_latency"] = "1e9"
        check = analysis.check_outputs(records + again, expected=None)
        self.assertEqual(check.failed, 2, check.reasons)
        text = " ".join(check.reasons)
        self.assertIn("differs from its first execution", text)
        self.assertIn("serial and sharded engines disagree", text)

    def test_missing_operation_fails(self):
        records = run_records(self.expected)
        victim = find_op(records, "paper-kernels")
        records.remove(victim)
        check = analysis.check_outputs(records, self.expected)
        self.assertEqual(check.failed, 1)
        self.assertIn("recorded operation not produced", check.reasons[0])

    def test_sanity_rules(self):
        self.assertEqual(analysis.sanity("probes", "x", {"grants": "5", "max_grants": "4"}),
                         ["grants outside (0, max-size grants]"])
        self.assertTrue(analysis.sanity("sim-light", "x", {}))


class PercentileRule(unittest.TestCase):
    def test_picks_highest_percentile_with_ten_beyond(self):
        cases = {19: None, 20: 50, 99: 50, 100: 90, 999: 90, 1000: 99,
                 9999: 99, 10000: 99.9}
        for n, want in cases.items():
            samples = [float(i) for i in range(n, 0, -1)]  # distinct, unsorted
            got = analysis.tail_percentile(samples)
            if want is None:
                self.assertIsNone(got, n)
                continue
            p, value = got
            self.assertEqual(p, want, n)
            beyond = sum(1 for s in samples if s > value)
            self.assertGreaterEqual(beyond, analysis.MIN_BEYOND, n)
            # The next percentile up would leave fewer than ten beyond it.
            higher = [q for q in analysis.PERCENTILES if q > p]
            if higher:
                rank = -(-higher[0] * n // 100)
                self.assertLess(n - rank, analysis.MIN_BEYOND, n)

    def test_value_is_nearest_rank(self):
        self.assertEqual(analysis.tail_percentile(list(range(1, 101))), (90, 90))
        self.assertEqual(analysis.tail_percentile(list(range(1, 21))), (50, 10))


def span(i, name, start, end, parent=-1, pass_id=0):
    return {"t": "span", "id": i, "name": name, "start": start, "end": end,
            "parent": parent, "op": 0, "pass": pass_id}


class SelfTime(unittest.TestCase):
    # bench.pass [0, 8]
    #   noc.construct [1, 3]        with child noc.inner [1.5, 2.5]
    #   sweep.call    [2, 5]        overlaps its sibling
    #   hw.synth      [6, 10]       runs past its parent; clipped to 8
    SPANS = [span(0, "bench.pass", 0.0, 8.0),
             span(1, "noc.construct", 1.0, 3.0, 0),
             span(2, "noc.inner", 1.5, 2.5, 1),
             span(3, "sweep.call", 2.0, 5.0, 0),
             span(4, "hw.synth", 6.0, 10.0, 0)]

    def test_subtraction_is_exact(self):
        own = analysis.self_times(self.SPANS)
        # Children cover [1, 5] and [6, 8] of the root: 6 of its 8 units.
        self.assertEqual(own, {0: 2.0, 1: 1.0, 2: 1.0, 3: 3.0, 4: 4.0})

    def test_layers_sum_self_time(self):
        records = self.SPANS + [{"t": "pass", "workload": "sim-light", "pass": 0,
                                 "traced": 1, "profile": 0, "wall_s": 8.0,
                                 "setup_s": 0.0}]
        layers = analysis.trace_summary(records)["layers"]["sim-light"]["self_s"]
        self.assertEqual(layers, {"bench": 2.0, "hw": 4.0, "noc": 2.0, "sweep": 3.0})
        self.assertEqual(analysis.layer_of("vc.make_vc_allocator"), "alloc")


class MetricNames(unittest.TestCase):
    """The metrics the analysis emits are exactly those BENCHMARK.json lists."""

    @classmethod
    def setUpClass(cls):
        with open(PERFBENCH.parent / "BENCHMARK.json") as f:
            cls.bench = json.load(f)
        cls.expected = load_groups(DEFAULT_SEED)

    def synthetic_run(self, workload, traced):
        """Records shaped like a real run: every op in pass 0; a traced run
        adds the profile passes, one untraced and one traced pass of the
        workload, and the probes."""
        records = [{"t": "stamp", "threads": 4}, {"t": "end", "max_rss_kb": 2048}]
        for r in run_records(self.expected):
            if r["t"] == "op":
                r["tm"] = {"construct_s": 0.01, "warmup_s": 0.5,
                           "measure_drain_s": 0.5, "s": 0.01}
                records.append(r)
        records.append({"t": "rate", "pass": 0, "name": "x", "cycles": 100, "s": 0.5})

        def add_pass(w, pass_id, is_traced, profile):
            records.append({"t": "pass", "workload": w, "pass": pass_id,
                            "traced": is_traced, "profile": profile,
                            "wall_s": 2.0 + pass_id, "setup_s": 0.1,
                            "cal_s": analysis.CAL_REF_S, "cal": "bracket"})

        if not traced:
            add_pass(workload, 0, 0, 0)
            return records
        for w in analysis.WORKLOADS:
            if w != workload:
                add_pass(w, 0, 1, 1)
        add_pass(workload, 1, 0, 0)
        add_pass(workload, 2, 1, 0)
        for m in self.bench["per_layer"]:
            name = m["name"]
            if name.startswith(("alloc.", "arbiter.")) or (
                    name.startswith("sweep.") and not name.startswith(
                        ("sweep.curve_s", "sweep.parallel", "sweep.slowest"))):
                records.append({"t": "probe", "name": name, "value": 1.0})
        records += [{"t": "probe", "name": "sweep.curve_s", "value": 1.0 + i}
                    for i in range(12)]
        return records

    def test_end_to_end_names(self):
        want = {m["name"]: m["unit"] for m in self.bench["end_to_end"]}
        for workload in analysis.WORKLOADS:
            metrics, _ = analysis.end_to_end_metrics(self.synthetic_run(workload, False),
                                                     workload)
            self.assertEqual({k: u for k, (_, u) in metrics.items()}, want)

    def test_host_speed_scaling(self):
        # A pass that ran while the host was twice as slow (calibration
        # kernel twice as long) counts as the same pass on a quiet host.
        records = self.synthetic_run("sim-light", False)
        quiet, _ = analysis.end_to_end_metrics(records, "sim-light")
        for r in records:
            if r["t"] == "pass":
                r["wall_s"] *= 2
                r["setup_s"] *= 2
                r["cal_s"] *= 2
            if r["t"] == "rate":
                r["s"] *= 2
        slow, _ = analysis.end_to_end_metrics(records, "sim-light")
        for name in ("wall_s", "setup_s", "sim_cycles_per_s"):
            self.assertAlmostEqual(slow[name][0], quiet[name][0], places=9)
        self.assertAlmostEqual(quiet["wall_s"][0], 2.0)

    def test_core_sampler_reference(self):
        # A pass calibrated by the per-core sampler is scaled against the
        # sampler's own reference, not calibrate()'s.
        records = self.synthetic_run("fig-curves", False)
        for r in records:
            if r["t"] == "pass":
                r["cal"] = "cores"
                r["cal_s"] = analysis.CORE_CAL_REF_S * 2
        metrics, _ = analysis.end_to_end_metrics(records, "fig-curves")
        self.assertAlmostEqual(metrics["wall_s"][0], 1.0)

    def test_per_layer_names(self):
        want = {m["name"]: m["unit"] for m in self.bench["per_layer"]}
        metrics, _ = analysis.layer_metrics(self.synthetic_run("sim-light", True),
                                            "sim-light")
        self.assertEqual({k: u for k, (_, u) in metrics.items()}, want)


if __name__ == "__main__":
    unittest.main()
