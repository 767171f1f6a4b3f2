"""Per-rule fixtures for the simulator-discipline linter (repro.checks.lint).

Each LINT rule gets a minimal snippet that fires it and a near-identical
snippet that does not, plus suppression-comment semantics and the
self-lint gate: the shipped package must lint clean.
"""

import textwrap

from repro.checks import lint_source
from repro.checks.lint import package_root


def ids(diagnostics):
    return {d.rule for d in diagnostics}


def lint(snippet, path="repro/somemodule.py"):
    return lint_source(textwrap.dedent(snippet), path)


# -- LINT000: unparseable module ---------------------------------------------

def test_lint000_syntax_error():
    found = lint("def broken(:\n")
    assert ids(found) == {"LINT000"}


# -- LINT001: wall-clock reads ----------------------------------------------

def test_lint001_time_time():
    found = lint(
        """
        import time

        def stamp():
            return time.time()
        """
    )
    assert ids(found) == {"LINT001"}


def test_lint001_perf_counter_and_datetime_now():
    found = lint(
        """
        import time, datetime

        def stamps():
            return time.perf_counter(), datetime.datetime.now()
        """
    )
    assert len([d for d in found if d.rule == "LINT001"]) == 2


def test_lint001_simulated_time_is_clean():
    found = lint(
        """
        def advance(sim):
            return sim.now + 5
        """
    )
    assert found == []


# -- LINT002: unseeded randomness -------------------------------------------

def test_lint002_global_random_module():
    found = lint(
        """
        import random

        def roll():
            return random.randint(0, 7)
        """
    )
    assert ids(found) == {"LINT002"}


def test_lint002_default_rng_without_seed():
    found = lint(
        """
        import numpy as np

        def gen():
            return np.random.default_rng()
        """
    )
    assert ids(found) == {"LINT002"}


def test_lint002_legacy_numpy_global():
    found = lint(
        """
        import numpy as np

        def gen():
            return np.random.randint(0, 255)
        """
    )
    assert ids(found) == {"LINT002"}


def test_lint002_seeded_rng_is_clean():
    found = lint(
        """
        import numpy as np

        def gen(seed):
            return np.random.default_rng(seed)
        """
    )
    assert found == []


def test_lint002_hardwired_literal_seed():
    found = lint(
        """
        import numpy as np

        def gen():
            return np.random.default_rng(42)
        """
    )
    assert ids(found) == {"LINT002"}


def test_lint002_explicit_none_seed():
    found = lint(
        """
        import numpy as np

        def gen():
            return np.random.default_rng(None)
        """
    )
    assert ids(found) == {"LINT002"}


def test_lint002_np_random_seed_literal():
    found = lint(
        """
        import numpy as np

        def gen():
            np.random.seed(1234)
        """
    )
    assert ids(found) == {"LINT002"}


def test_lint002_bare_default_rng_import_form():
    found = lint(
        """
        from numpy.random import default_rng

        def gen():
            return default_rng(7)
        """
    )
    assert ids(found) == {"LINT002"}


def test_lint002_derive_seed_helper_is_clean():
    found = lint(
        """
        import numpy as np

        def gen(name):
            return np.random.default_rng(derive_seed(name))
        """
    )
    assert found == []


def test_lint002_seed_propagated_through_assignment_is_clean():
    found = lint(
        """
        import numpy as np

        def gen(seed):
            local = seed + 1
            return np.random.default_rng(local)
        """
    )
    assert found == []


def test_lint002_keyword_seed_from_parameter_is_clean():
    found = lint(
        """
        import numpy as np

        def gen(seed):
            return np.random.default_rng(seed=seed)
        """
    )
    assert found == []


def test_lint002_nested_function_sees_outer_parameter():
    found = lint(
        """
        import numpy as np

        def outer(seed):
            def inner():
                return np.random.default_rng(seed)

            return inner
        """
    )
    assert found == []


# -- LINT003: bare assert in library code -----------------------------------

def test_lint003_bare_assert():
    found = lint(
        """
        def f(x):
            assert x > 0
            return x
        """
    )
    assert ids(found) == {"LINT003"}


def test_lint003_explicit_raise_is_clean():
    found = lint(
        """
        def f(x):
            if x <= 0:
                raise ValueError("x must be positive")
            return x
        """
    )
    assert found == []


# -- LINT004: float arithmetic into *_ps values -----------------------------

def test_lint004_division_assigned_to_ps_name():
    found = lint("delay_ps = cycles / 2\n")
    assert ids(found) == {"LINT004"}


def test_lint004_augmented_division():
    found = lint(
        """
        def tick(self):
            self.busy_until_ps /= 2
        """
    )
    assert ids(found) == {"LINT004"}


def test_lint004_float_keyword_argument():
    found = lint(
        """
        def go(sim, n):
            sim.schedule(when_ps=n / 3)
        """
    )
    assert ids(found) == {"LINT004"}


def test_lint004_rounded_division_is_clean():
    found = lint("delay_ps = round(cycles / 2)\n")
    assert found == []


def test_lint004_integer_arithmetic_is_clean():
    found = lint("delay_ps = cycles * period_ps + 3\n")
    assert found == []


# -- LINT005: fast-path discipline ------------------------------------------

def test_lint005_unguarded_burst_primitive():
    found = lint(
        """
        def move(self, op, address, beats, start):
            return self.slave.access_burst(op, address, 8, beats, 16, None, start)
        """
    )
    assert ids(found) == {"LINT005"}


def test_lint005_guarded_burst_is_clean():
    found = lint(
        """
        from repro.engine import fastpath

        def move(self, op, address, beats, start):
            if fastpath.enabled():
                return self.slave.access_burst(op, address, 8, beats, 16, None, start)
            return self.slow(op, address, beats, start)
        """
    )
    assert found == []


def test_lint005_request_burst_gates_itself():
    found = lint(
        """
        def move(self, cursor, d):
            return self.bus.request_burst(cursor, d.src, d.word_count)
        """
    )
    assert found == []


def test_lint005_env_var_literal_outside_fastpath_module():
    found = lint('import os\nflag = os.environ.get("REPRO_NO_FAST_PATH")\n')
    assert ids(found) == {"LINT005"}


def test_lint005_env_var_literal_inside_fastpath_module_is_clean():
    found = lint(
        'import os\nflag = os.environ.get("REPRO_NO_FAST_PATH")\n',
        path="repro/engine/fastpath.py",
    )
    assert found == []


# -- LINT006: scenario purity ------------------------------------------------

def test_lint006_wall_clock_in_scenario():
    found = lint(
        """
        import time
        from repro.scenarios import scenario

        @scenario("bad_clock")
        def bad_clock():
            started = time.time()
            return started
        """
    )
    # LINT001 also fires (wall clock anywhere); LINT006 adds scenario context.
    assert "LINT006" in ids(found)
    assert "LINT001" in ids(found)


def test_lint006_global_statement_in_scenario():
    found = lint(
        """
        from repro.scenarios import scenario

        COUNTER = 0

        @scenario("bad_global")
        def bad_global():
            global COUNTER
            COUNTER = COUNTER + 1
            return COUNTER
        """
    )
    assert ids(found) == {"LINT006"}


def test_lint006_mutating_module_level_list():
    found = lint(
        """
        from repro.scenarios import scenario

        RESULTS = []

        @scenario("bad_mutation")
        def bad_mutation():
            RESULTS.append(1)
            return RESULTS
        """
    )
    assert ids(found) == {"LINT006"}


def test_lint006_subscript_write_into_module_level_dict():
    found = lint(
        """
        from repro.scenarios import scenario

        MEMO = {}

        @scenario("bad_memo")
        def bad_memo(n):
            MEMO[n] = n * 2
            return MEMO[n]
        """
    )
    assert ids(found) == {"LINT006"}


def test_lint006_attribute_write_into_imported_module():
    found = lint(
        """
        import somepkg
        from repro.scenarios import scenario

        @scenario("bad_attr")
        def bad_attr():
            somepkg.state = 3
            return 3
        """
    )
    assert ids(found) == {"LINT006"}


def test_lint006_local_state_and_reads_are_clean():
    found = lint(
        """
        from repro.scenarios import scenario

        SIZES = (16, 64)

        @scenario("good", params={"n": 4})
        def good(n):
            rows = []
            for size in SIZES:  # reading module constants is fine
                rows.append([size, n * size])
            return rows
        """
    )
    assert found == []


def test_lint006_local_shadowing_is_clean():
    found = lint(
        """
        from repro.scenarios import scenario

        rows = []

        @scenario("shadowed")
        def shadowed():
            rows = []
            rows.append(1)  # the local, not the module-level binding
            return rows
        """
    )
    assert found == []


def test_lint006_undecorated_function_not_held_to_purity():
    found = lint(
        """
        RESULTS = []

        def helper():
            RESULTS.append(1)
        """
    )
    assert found == []


# -- suppression comments ----------------------------------------------------

def test_noqa_named_rule_suppresses():
    found = lint("def f(x):\n    assert x  # repro: noqa LINT003\n")
    assert found == []


def test_noqa_blanket_suppresses_all():
    found = lint("def f(x):\n    assert x  # repro: noqa\n")
    assert found == []


def test_noqa_other_rule_does_not_suppress():
    found = lint("def f(x):\n    assert x  # repro: noqa LINT001\n")
    assert ids(found) == {"LINT003"}


def test_noqa_multiple_rules():
    found = lint("def f(x):\n    assert x  # repro: noqa LINT001, LINT003\n")
    assert found == []


# -- diagnostics carry locations ---------------------------------------------

def test_diagnostic_location_and_hint():
    found = lint("def f(x):\n    assert x\n", path="repro/lib.py")
    (diag,) = found
    assert diag.file == "repro/lib.py"
    assert diag.line == 2
    assert diag.hint
    assert "repro/lib.py:2" in diag.render()


# -- the self-lint gate ------------------------------------------------------

def test_shipped_package_lints_clean(shipped_lint):
    assert shipped_lint.diagnostics == [], shipped_lint.format_text()


def test_package_root_points_at_repro():
    assert package_root().name == "repro"
    assert (package_root() / "checks" / "lint.py").exists()


# -- LINT007: swallowed broad excepts ----------------------------------------

def test_lint007_bare_except_swallowing():
    found = lint(
        """
        def f():
            try:
                work()
            except:
                pass
        """
    )
    assert ids(found) == {"LINT007"}


def test_lint007_broad_except_swallowing():
    found = lint(
        """
        def f():
            try:
                work()
            except Exception:
                return None
        """
    )
    assert ids(found) == {"LINT007"}


def test_lint007_broad_except_in_tuple():
    found = lint(
        """
        def f():
            try:
                work()
            except (ValueError, BaseException) as err:
                log(err)
        """
    )
    assert ids(found) == {"LINT007"}


def test_lint007_reraising_handler_is_clean():
    found = lint(
        """
        def f():
            try:
                work()
            except Exception as err:
                raise RuntimeError("wrapped") from err
        """
    )
    assert found == []


def test_lint007_narrow_handler_is_clean():
    found = lint(
        """
        def f():
            try:
                work()
            except (ValueError, KeyError):
                return None
        """
    )
    assert found == []


def test_lint007_noqa_suppresses():
    found = lint(
        """
        def f():
            try:
                work()
            except Exception:  # repro: noqa LINT007 (boundary: errors become data)
                return None
        """
    )
    assert found == []


# -- LINT008: engine mutation inside a run_steady bulk callback ---------------

def test_lint008_cpu_primitive_in_bulk():
    found = lint(
        """
        def run(system, words):
            cpu = system.cpu

            def step(i):
                cpu.io_write(0x100, words[i])
                cpu.execute_cycles(4)

            def bulk(start, count):
                for i in range(start, start + count):
                    cpu.io_write(0x100, words[i])  # charges bus time twice

            run_steady(system, len(words), step, bulk, phase="demo")
        """
    )
    assert ids(found) == {"LINT008"}


def test_lint008_timing_cursor_write_in_bulk():
    found = lint(
        """
        def run(system, n):
            def step(i):
                system.cpu.execute_cycles(4)

            def bulk(start, count):
                system.cpu.now_ps = system.cpu.now_ps + count * 40

            run_steady(system, n, step, bulk, phase="demo")
        """
    )
    assert ids(found) == {"LINT008"}


def test_lint008_busy_until_ps_write_in_bulk():
    found = lint(
        """
        def run(system, n):
            def step(i):
                system.cpu.execute_cycles(4)

            def bulk(start, count):
                system.dock.dma_busy_until_ps = system.cpu.now_ps
                system.uart.tx_busy_until_ps += count * 86_806_000

            run_steady(system, n, step, bulk, phase="demo")
        """
    )
    assert [f.rule for f in found] == ["LINT008", "LINT008"]


def test_lint008_bulk_keyword_and_lambda_forms():
    found = lint(
        """
        def run(system, n):
            def step(i):
                system.cpu.execute_cycles(4)

            run_steady(
                system, n, step,
                bulk=lambda start, count: system.cpu.elapse_cycles(4 * count),
                phase="demo",
            )
        """
    )
    assert ids(found) == {"LINT008"}


def test_lint008_data_movement_bulk_is_clean():
    found = lint(
        """
        def run(system, words, out_words):
            dock = system.dock

            def step(i):
                system.cpu.io_write(dock.base, words[i])
                system.cpu.execute_cycles(4)

            def bulk(start, count):
                dock.feed_words(words[start : start + count], 32, 0)
                out_words.extend(dock.drain_words(count, 32, 0))

            run_steady(system, len(words), step, bulk, phase="demo")
        """
    )
    assert found == []


def test_lint008_mutators_outside_bulk_are_clean():
    found = lint(
        """
        def plain(system, n):
            for _ in range(n):
                system.cpu.execute_cycles(4)
        """
    )
    assert found == []


def test_lint008_noqa_suppresses():
    found = lint(
        """
        def run(system, n):
            def step(i):
                system.cpu.execute_cycles(4)

            def bulk(start, count):
                system.cpu.count("retired")  # repro: noqa LINT008 (measured elsewhere)

            run_steady(system, n, step, bulk, phase="demo")
        """
    )
    assert found == []


# -- LINT009: serve-decision discipline --------------------------------------

def test_lint009_decision_kernel_with_loop():
    found = lint(
        """
        def decide_segment(costs):
            total = 0
            for c in costs:
                total += c
            return total
        """
    )
    assert ids(found) == {"LINT009"}


def test_lint009_decision_kernel_with_rng():
    found = lint(
        """
        from numpy.random import default_rng

        def decide_admit(seed):
            return default_rng(seed).random() < 0.5
        """
    )
    assert "LINT009" in ids(found)


def test_lint009_decision_kernel_reads_environment():
    found = lint(
        """
        import os

        def decide_mode():
            if os.getenv("SERVE_MODE"):
                return 1
            return os.environ["SERVE_MODE"]
        """
    )
    assert ids(found) == {"LINT009"}
    assert len(found) == 2


def test_lint009_pure_decision_kernel_is_clean():
    found = lint(
        """
        def decide_segment(reconfig_ps, hw_ps, sw_ps, resident):
            if resident:
                return 0 if hw_ps < sw_ps else 2
            if reconfig_ps + hw_ps < sw_ps:
                return 1
            return 2
        """
    )
    assert found == []


def test_lint009_serve_scenario_loops_over_trace():
    found = lint(
        """
        @scenario("s", tags=("serve",), params={"n": 4, "seed": 1})
        def s(n, seed):
            trace = make_trace("poisson", n, 100, seed)
            total = 0
            for request in trace:
                total += int(request["size"])
            return total
        """
    )
    assert ids(found) == {"LINT009"}


def test_lint009_serve_scenario_comprehension_over_outcome_projection():
    found = lint(
        """
        @scenario("s", tags=("serve",), params={"n": 4})
        def s(n):
            outcome = simulate(build(), table(), config())
            lat = outcome.latency_ps
            return [int(x) for x in lat]
        """
    )
    assert ids(found) == {"LINT009"}


def test_lint009_serve_scenario_vectorized_is_clean():
    found = lint(
        """
        @scenario("s", tags=("serve",), params={"n": 4, "seed": 1})
        def s(n, seed):
            trace = make_trace("poisson", n, 100, seed)
            outcome = simulate(trace, table(), config())
            report = summarize(outcome)
            rows = [[row.bin, row.count] for row in report.curve]
            return int(outcome.latency_ps.max()), rows
        """
    )
    assert found == []


def test_lint009_untagged_scenario_may_loop():
    found = lint(
        """
        @scenario("s", tags=("table",), params={"n": 4, "seed": 1})
        def s(n, seed):
            trace = make_trace("poisson", n, 100, seed)
            return sum(int(r["size"]) for r in trace)
        """
    )
    assert found == []


def test_lint009_noqa_suppresses():
    found = lint(
        """
        def decide_debug(costs):
            for c in costs:  # repro: noqa LINT009 (diagnostic helper)
                print(c)
        """
    )
    assert found == []
