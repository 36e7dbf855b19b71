"""Tests of the benchmark itself: reproducible inputs, a checker that
catches wrong answers, and traced layers.

    python3 -m pytest perfbench/tests -q
"""

import copy
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

LAYER_TABLE = ("scalars", "linalg", "lp", "atlas", "morphism", "lattice_fan",
               "calibration", "gale_lvmb", "moduli", "io", "cli")


def deck_bytes(deck):
    return ([(r.kind, r.argv, r.expect) for r in deck.requests],
            {name: deck.file_bytes(name) for name in deck.files})


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    first = deck_bytes(workloads.build_deck(workload, 7))
    assert first == deck_bytes(workloads.build_deck(workload, 7))
    assert first != deck_bytes(workloads.build_deck(workload, 8))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_deck_has_enough_latency_samples(workload):
    # p90 needs ten samples beyond it; each distinct request is one sample
    assert len(workloads.build_deck(workload, 1).requests) >= 100


@pytest.fixture(scope="module")
def cli():
    return run.import_program()


def serve_requests(cli, deck, indices, tmp_path):
    argvs = run.write_inputs(deck, str(tmp_path / "work"))
    sub = copy.copy(deck)
    sub.requests = [deck.requests[i] for i in indices]
    _, _, outcomes, _ = run.serve(cli, [argvs[i] for i in indices], 0, 1)
    return run.judge(sub, outcomes)


def test_wrong_expected_answer_is_counted(cli, tmp_path):
    deck = workloads.build_deck("moduli", 3)
    wps = next(i for i, r in enumerate(deck.requests)
               if r.kind == "wps-weights")
    hopf = next(i for i, r in enumerate(deck.requests)
                if r.kind == "hopf-equiv")
    assert serve_requests(cli, deck, [wps, hopf], tmp_path)[:2] == (0, 0)
    deck.requests[wps].expect["weights"][0] += 1
    deck.requests[hopf].expect["equivalent"] ^= True
    failed, unexpected, kinds = serve_requests(cli, deck, [wps, hopf],
                                               tmp_path / "again")
    assert (failed, unexpected) == (2, 2)
    assert kinds == {"wps-weights [unexpected]": 1,
                     "hopf-equiv [unexpected]": 1}


def test_known_defect_signatures():
    capped = '{"error": {"code": "UnsupportedField", "message": "x"}}'
    assert oracle.known_defect("cf-cap", 2, capped)
    assert not oracle.known_defect("cf-cap", 3, capped)
    assert not oracle.known_defect("cf-cap", 2, '{"error": {"code": "X"}}')
    assert oracle.known_defect("quad-overlap", 0, '{"valid": true}')
    assert not oracle.known_defect("quad-overlap", 2, "{}")
    assert not oracle.known_defect(None, 0, "{}")


def test_report_of_another_shape_is_a_failure():
    expect = {"check": "atlas", "charts": 3, "gluings": 6}
    assert oracle.check(expect, 0, '{"charts": []}') is not None
    assert oracle.check({"check": "valid"}, 0, "[]") is not None
    assert oracle.check({"check": "valid"}, 0, "not json") is not None


def test_overlap_checker_needs_the_duplicated_pair():
    expect = {"check": "overlap", "pair": [[2], [5]]}
    right = {"valid": False, "violations": [
        {"kind": "overlap", "detail": {"cones": [[2], [5]]}}]}
    wrong = {"valid": False, "violations": [
        {"kind": "overlap", "detail": {"cones": [[2], [1, 5]]}}]}
    assert oracle.CHECKS["overlap"](expect, 1, right) is None
    assert oracle.CHECKS["overlap"](expect, 1, wrong) is not None
    assert oracle.CHECKS["overlap"](expect, 0, {"valid": True}) is not None


def test_every_layer_gets_spans(cli, tmp_path):
    busy = set()
    for workload, rounds in (("fans-rational", 2), ("moduli", 1)):
        deck = workloads.build_deck(workload, 1)
        argvs = run.write_inputs(deck, str(tmp_path / workload))
        count = sum(1 for r in deck.requests if r.round < rounds)
        out, tracer, outcomes = run.layer_metrics(cli, deck, argvs, count)
        assert run.judge(deck, outcomes)[1] == 0
        busy |= {layer for layer in LAYER_TABLE if out[f"{layer}.self_s"] > 0}
        assert out["trace.overhead_ratio"] > 0
        # the wrappers are gone after the traced pass
        assert not hasattr(cli.main, "__wrapped__")
    assert busy == set(LAYER_TABLE)
