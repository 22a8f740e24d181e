#!/usr/bin/env python3
"""Fixture driver for the lbmib-* protocol checks (ctest label: lint).

Runs scripts/lbmib_lint.py over a fixture (or the whole src/ tree) and
asserts its observable behavior:

  * every fixture names the check it covers on a `// CHECK: <check>`
    line;
  * a *_violation.cpp fixture declares its expected diagnostics as
    `// EXPECT: <substring>` lines: at least one diagnostic of its check
    must fire, and each substring must appear in one of them;
  * a *_clean.cpp fixture declares `// EXPECT-CLEAN`: no lbmib-*
    diagnostic may fire;
  * --coverage requires a violation and a clean fixture for every check
    that `lbmib_lint.py --list-checks` prints, so a new check cannot
    land untested;
  * --tree requires zero diagnostics over src/ (every deliberate
    exception in the tree carries a NOLINT + reason).

Exit: 0 pass, 1 assertion failed, 2 usage error.
"""

import argparse
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
FIXTURES = HERE / "fixtures"
sys.path.insert(0, str(HERE.parent.parent / "scripts"))

import lbmib_lint  # noqa: E402


def parse_fixture(path):
    check, expects, clean = None, [], False
    for line in path.read_text().splitlines():
        line = line.strip()
        if line.startswith("// CHECK:"):
            check = line[len("// CHECK:"):].strip()
        elif line.startswith("// EXPECT-CLEAN"):
            clean = True
        elif line.startswith("// EXPECT:"):
            expects.append(line[len("// EXPECT:"):].strip())
    return check, expects, clean


def check_fixture(path):
    check, expects, clean = parse_fixture(path)
    if check not in lbmib_lint.CHECKS:
        print(f"error: {path.name} names no known check "
              f"(// CHECK: {check})", file=sys.stderr)
        return 2
    if bool(expects) == clean:
        print(f"error: {path.name} needs EXPECT lines or EXPECT-CLEAN, "
              "not both", file=sys.stderr)
        return 2
    diags = [str(d) for d in lbmib_lint.lint_file(path)]
    own = [d for d in diags if d.endswith(f"[{check}]")]

    failures = []
    if clean and diags:
        failures.append("expected a clean run, got:")
        failures.extend("  " + d for d in diags)
    if expects and not own:
        failures.append(f"expected {check} diagnostics, engine emitted none")
    for want in expects:
        if not any(want in d for d in own):
            failures.append(f"no {check} diagnostic contains: {want!r}")

    if failures:
        print(f"FAIL {path.name}")
        for f in failures:
            print("  " + f)
        if diags:
            print("  emitted:")
            for d in diags:
                print("    " + d)
        return 1
    print(f"ok   {path.name} ({len(diags)} diagnostic(s), "
          f"{len(expects)} expectation(s))")
    return 0


def check_coverage():
    covered = {}
    for path in sorted(FIXTURES.glob("*.cpp")):
        check, _, clean = parse_fixture(path)
        covered.setdefault(check, set()).add("clean" if clean else "violation")
    missing = [
        f"{check}: no {kind} fixture"
        for check in lbmib_lint.CHECKS
        for kind in ("violation", "clean")
        if kind not in covered.get(check, set())
    ]
    unknown = sorted(c for c in covered if c not in lbmib_lint.CHECKS)
    missing += [f"fixture names unknown check {c!r}" for c in unknown]
    if missing:
        print("FAIL fixture coverage")
        for m in missing:
            print("  " + m)
        return 1
    print(f"ok   {len(lbmib_lint.CHECKS)} checks, each with a violation "
          "and a clean fixture")
    return 0


def check_tree():
    diags = [d for f in lbmib_lint.tree_files()
             for d in lbmib_lint.lint_file(f)]
    if not diags:
        print("ok   src/ tree clean")
        return 0
    for d in diags:
        print(d)
    print("FAIL src/ tree has undocumented diagnostics")
    return 1


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--fixture", type=pathlib.Path)
    mode.add_argument("--coverage", action="store_true")
    mode.add_argument("--tree", action="store_true")
    args = ap.parse_args(argv)

    if args.tree:
        return check_tree()
    if args.coverage:
        return check_coverage()
    if not args.fixture.is_file():
        print(f"error: no such fixture: {args.fixture}", file=sys.stderr)
        return 2
    return check_fixture(args.fixture.resolve())


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
