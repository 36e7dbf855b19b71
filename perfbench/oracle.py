"""Answer checks: compare one request's exit code and JSON report with the
answer its input was built to have.

``check`` returns None when the answer is right and a short reason when it
is not.  ``known_defect`` says whether a wrong answer is the documented
symptom of a defect the request was included to expose; those still count
as failed requests.
"""

from __future__ import annotations

import json
from fractions import Fraction as Q

from exact import QuadNumber, columns, det, identity, mat_mul

EXIT_INPUT = 2


def check(expect: dict, code, out: str):
    try:
        report = json.loads(out)
    except ValueError:
        return f"exit {code}, report is not JSON"
    try:
        return CHECKS[expect["check"]](expect, code, report)
    except (KeyError, IndexError, TypeError, AttributeError, ValueError,
            ZeroDivisionError) as e:
        # a report of another shape is a wrong answer, not a benchmark crash
        return f"exit {code}, unexpected report ({type(e).__name__}: {e})"


def known_defect(defect, code, out: str) -> bool:
    """The failure signatures of the defects listed in ROADMAP.md.

    quad-overlap: the duplicated quadratic ray direction is decided on
    rounded witness values, so the report misses the overlap (exit 0 or a
    different overlap pair, exit 1).  cf-cap: the continued-fraction walk
    stops at its step cap and the request exits 2 with UnsupportedField."""
    if defect == "quad-overlap":
        return code in (0, 1)
    if defect == "cf-cap":
        try:
            err = json.loads(out).get("error", {})
        except (ValueError, AttributeError):
            return False
        return code == EXIT_INPUT and err.get("code") == "UnsupportedField"
    return False


def _exit(code, want):
    return None if code == want else f"exit {code}, expected {want}"


def check_valid(expect, code, report):
    if code != 0 or report.get("valid") is not True:
        return f"exit {code}, expected a valid fan: {report}"
    return None


def check_overlap(expect, code, report):
    if code != 1 or report.get("valid") is not False:
        return f"exit {code}, expected an overlap: {report}"
    kinds = {v["kind"] for v in report.get("violations", [])}
    pairs = [sorted(v["detail"]["cones"]) for v in report["violations"]
             if v["kind"] == "overlap"]
    if kinds != {"overlap"} or sorted(expect["pair"]) not in pairs:
        return f"overlap {expect['pair']} not reported: {report}"
    return None


def check_properties(expect, code, report):
    if code != 0:
        return f"exit {code}, expected 0"
    for key in ("irrational", "complete", "gamma_complete", "polytopal"):
        if report.get(key) != expect[key]:
            return f"{key} = {report.get(key)}, expected {expect[key]}"
    return None


def check_atlas(expect, code, report):
    if code != 0:
        return f"exit {code}, expected 0"
    if len(report["charts"]) != expect["charts"]:
        return f"{len(report['charts'])} charts, expected {expect['charts']}"
    if len(report["gluings"]) != expect["gluings"]:
        return (f"{len(report['gluings'])} gluings, "
                f"expected {expect['gluings']}")
    if report["cocycle"] is not True:
        return "cocycle check failed"
    if "rays" in expect:
        rays = [[Q(x) for x in v] for v in expect["rays"]]
        for chart in report["charts"]:
            A = [[Q(x) for x in r] for r in chart["A"]]
            V = columns([rays[i - 1] for i in chart["I"]])
            if mat_mul(A, V) != identity(len(V)):
                return f"chart {chart['I']}: A_I is not the inverse"
    return None


def check_flag(expect, code, report):
    if report.get(expect["key"]) != expect["value"]:
        return f"{expect['key']} = {report.get(expect['key'])}: {report}"
    return _exit(code, expect["exit"])


def check_lvmb_build(expect, code, report):
    if code != 0:
        return f"exit {code}, expected 0: {report}"
    got = (report["m"], len(report["Lambda"]), len(report["E"]),
           report["indispensable"])
    want = (expect["m"], expect["N"], expect["E"], expect["indispensable"])
    if got != want:
        return f"(m, N, |E|, indispensable) {got} != {want}"
    return None


def check_lvmb_check(expect, code, report):
    if code != 0 or report.get("valid") is not True:
        return f"exit {code}, expected an admissible datum: {report}"
    if report["indispensable"] != expect["indispensable"]:
        return f"indispensable {report['indispensable']}"
    return None


def check_lvmb_to_fan(expect, code, report):
    if code != 0:
        return f"exit {code}, expected 0: {report}"
    cal = report.get("calibration", {})
    maxc = sum(1 for c in report["cones"] if len(c) == report["dim"])
    got = (report["dim"], len(report["rays"]), cal.get("n"), cal.get("J"),
           maxc)
    want = (expect["dim"], expect["rays"], expect["n"], expect["J"],
            expect["cones"])
    return None if got == want else f"(d, p, n, J, cones) {got} != {want}"


def check_polytope(expect, code, report):
    if code != 0:
        return f"exit {code}, expected 0"
    got = (report["facet_count"], len(report["vertices"]))
    want = (expect["facets"], expect["vertices"])
    return None if got == want else f"(facets, vertices) {got} != {want}"


def check_batch(expect, code, report):
    items = expect["items"]
    if not isinstance(report, list) or len(report) != len(items):
        return f"batch report has the wrong shape: {report}"
    codes = []
    for sub, entry in zip(items, report):
        sub_code = 0 if sub["check"] != "overlap" else 1
        bad = CHECKS[sub["check"]](sub, sub_code, entry["report"])
        if bad:
            return f"{entry.get('file')}: {bad}"
        codes.append(sub_code)
    return _exit(code, max(codes))


def check_search(expect, code, report):
    if report.get("found") is not expect["found"]:
        return f"found = {report.get('found')}, expected {expect['found']}"
    if expect["found"]:
        m = report["morphism"]
        if m["L"] != expect["L"] or m["H"] != expect["H"]:
            return f"morphism {m}"
    return _exit(code, 0 if expect["found"] else 1)


def check_equiv_2d(expect, code, report):
    if code != 0 or report.get("equivalent") is not True:
        return f"exit {code}, expected equivalent: {report}"
    H = [[Q(x) for x in r] for r in report["H"]]
    if any(x.denominator != 1 for r in H for x in r) or abs(det(H)) != 1:
        return f"H = {report['H']} is not in GL_2(Z)"
    D = expect["D"]
    a = QuadNumber(*map(Q, expect["a"]), D)
    b = QuadNumber(*map(Q, expect["b"]), D)
    (p, _), (q, _) = H
    if p + q * a.u == 0 and q * a.v == 0:
        return f"H = {report['H']} sends a to infinity"
    if a.act(H) != b:
        return f"H = {report['H']} does not send a to b"
    return None


def check_p2_orbit(expect, code, report):
    if code != 0:
        return f"exit {code}, expected 0: {report}"
    got = (report["isotropy"], len(report["orbit"]))
    want = (expect["isotropy"], expect["orbit"])
    return None if got == want else f"(isotropy, |orbit|) {got} != {want}"


def check_wps(expect, code, report):
    if code != 0 or report.get("weights") != expect["weights"]:
        return f"exit {code}, weights {report.get('weights')}"
    return None


def check_hopf(expect, code, report):
    got = (report.get("equivalent"), report.get("isotropy"))
    want = (expect["equivalent"], expect["isotropy"])
    if got != want:
        return f"(equivalent, isotropy) {got} != {want}"
    return _exit(code, 0 if expect["equivalent"] else 1)


CHECKS = {
    "valid": check_valid,
    "overlap": check_overlap,
    "properties": check_properties,
    "atlas": check_atlas,
    "flag": check_flag,
    "lvmb-build": check_lvmb_build,
    "lvmb-check": check_lvmb_check,
    "lvmb-to-fan": check_lvmb_to_fan,
    "polytope": check_polytope,
    "batch": check_batch,
    "search": check_search,
    "equiv-2d": check_equiv_2d,
    "p2-orbit": check_p2_orbit,
    "wps": check_wps,
    "hopf": check_hopf,
}
