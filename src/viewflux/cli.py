"""Command-line interface.

Instances live in plain-text files (see formats); commands print closed
instances back in the same format with views auto-named v1, v2, ... in
canonical order.  The ``check`` command runs the property suites and exits
nonzero exactly when a law fails; flagged entries (documented divergences)
keep the zero exit status.  VIEWFLUX_MAX_ENUM overrides the enumeration
bounds, and the instance cap of ``check`` unless ``--max-instances`` is given.
"""

from __future__ import annotations

import argparse
import os
import sys

from .catops import hom_object, matching, merging, omega_chain
from .closure import power_view, total_object
from .core import Instance, UniverseConfig
from .errors import ViewfluxError
from .formats import load_instance, load_morphism, render_instance
from .morphisms import compose, is_epi, is_iso, is_mono
from .queries import evaluate, parse_query
from .suites import (
    DEFAULT_MAX_INSTANCES,
    DEFAULT_MAX_RELATIONS,
    SUITE_NAMES,
    render_report,
    run_suite,
)
from .topos import classifier, closure_classes, distance


def _max_enum() -> int | None:
    """The VIEWFLUX_MAX_ENUM override, or None when it is unset."""
    env = os.environ.get("VIEWFLUX_MAX_ENUM")
    if not env:
        return None
    if not env.strip().isdecimal() or int(env) < 1:
        raise ViewfluxError(f"VIEWFLUX_MAX_ENUM must be a positive integer, got {env!r}")
    return int(env)


def _cfg(domain, k_max: int) -> UniverseConfig:
    bound = _max_enum()
    overrides = {} if bound is None else {"max_enumeration": bound, "max_universe": bound}
    return UniverseConfig(domain=frozenset(domain), k_max=k_max, **overrides)


def _load_pair(path_a, path_b, k_max):
    a, dom_a = load_instance(path_a)
    b, dom_b = load_instance(path_b)
    if dom_a != dom_b:
        raise ViewfluxError("the two instance files declare different domains")
    return a, b, _cfg(dom_a, k_max)


def _print_closed(relations, domain) -> None:
    sys.stdout.write(render_instance(Instance(frozenset(relations), {}), domain))


def cmd_eval(args) -> int:
    inst, domain = load_instance(args.instance)
    schema = {n: r.arity for n, r in inst.labels.items()}
    term = parse_query(args.query, schema, domain)
    result = evaluate(term, inst)
    out = Instance(frozenset({result}), {"result": result})
    sys.stdout.write(render_instance(out, domain))
    return 0


def cmd_closure(args) -> int:
    inst, domain = load_instance(args.instance)
    cfg = _cfg(domain, args.kmax)
    _print_closed(power_view(inst, cfg).relations, domain)
    return 0


def cmd_total(args) -> int:
    cfg = _cfg(args.domain.split(","), args.kmax)
    _print_closed(total_object(cfg).relations, cfg.domain)
    return 0


def cmd_binary(args) -> int:
    a, b, cfg = _load_pair(args.left, args.right, args.kmax)
    op = {"match": matching, "merge": merging, "homobj": hom_object, "distance": distance}
    _print_closed(op[args.op](a, b, cfg).relations, cfg.domain)
    return 0


def cmd_chain(args) -> int:
    inst, domain = load_instance(args.instance)
    cfg = _cfg(domain, args.kmax)
    for i, step in enumerate(omega_chain(inst, cfg, args.steps)):
        sys.stdout.write(f"# step {i}\n")
        _print_closed(step.relations, domain)
    return 0


def _classification(f) -> str:
    if is_iso(f):
        return "iso"
    if is_mono(f):
        return "mono"
    if is_epi(f):
        return "epi"
    return "general"


def cmd_compose(args) -> int:
    first = load_morphism(args.first, k_max=args.kmax)
    second = load_morphism(args.second, k_max=args.kmax)
    composite = compose(second, first)  # apply first, then second
    sys.stdout.write(f"# composite of {args.first} then {args.second}\n")
    sys.stdout.write(f"# classification: {_classification(composite)}\n")
    sys.stdout.write("# flux:\n")
    _print_closed(composite.flux.relations, composite.cfg.domain)
    return 0


def cmd_flux(args) -> int:
    f = load_morphism(args.morphism, k_max=args.kmax)
    _print_closed(f.flux.relations, f.cfg.domain)
    return 0


def cmd_classify(args) -> int:
    f = load_morphism(args.morphism, k_max=args.kmax)
    sys.stdout.write(_classification(f) + "\n")
    return 0


def cmd_classify_subobject(args) -> int:
    from .closure import po_leq
    from .morphisms import semantic_arrow

    a, b, cfg = _load_pair(args.subobject, args.ambient, args.kmax)
    if not po_leq(a, b, cfg):
        raise ViewfluxError("the first instance is not a subobject of the second")
    mono = semantic_arrow(a, b, power_view(a, cfg), cfg)
    vertices = closure_classes(cfg, min(args.max_relations, 2))
    char, report = classifier(mono, cfg, vertices)
    sys.stdout.write("# characteristic arrow generators:\n")
    _print_closed(report.generators, cfg.domain)
    sys.stdout.write(
        "generator-level: {}\n".format("PASS" if report.generator_commutes else "FAIL")
    )
    sys.stdout.write(
        "factorization: {} ({} arrows)\n".format(
            "PASS" if report.factorization_ok else "FAIL", report.arrows_checked
        )
    )
    sys.stdout.write(f"characteristic arrows in class: {report.char_class_size}\n")
    status = "FLAGGED" if report.flagged else "PASS"
    sys.stdout.write(f"closure-level audit: {status}\n")
    return 0


def cmd_check(args) -> int:
    cfg = _cfg(args.domain.split(","), args.kmax)
    max_instances = args.max_instances
    if max_instances is None:
        max_instances = _max_enum() or DEFAULT_MAX_INSTANCES
    report = run_suite(args.suite, cfg, args.max_relations, max_instances)
    sys.stdout.write(render_report(report, timings=args.timings))
    return 0 if report.ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="viewflux",
        description="Finite model of the category of database instances "
        "and view-based morphisms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_kmax(p):
        p.add_argument("--kmax", type=int, default=1, help="view-arity cap (default 1)")

    p = sub.add_parser("eval", help="evaluate a query against an instance file")
    p.add_argument("instance")
    p.add_argument("query")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("closure", help="print all views of an instance")
    p.add_argument("instance")
    add_kmax(p)
    p.set_defaults(fn=cmd_closure)

    p = sub.add_parser("total", help="print the total object of a configuration")
    p.add_argument("--domain", required=True, help="comma-separated constants")
    add_kmax(p)
    p.set_defaults(fn=cmd_total)

    for op, help_text in [
        ("match", "intersection of the view closures"),
        ("merge", "closure of the union"),
        ("homobj", "internal hom of two instances"),
        ("distance", "distance between two instances"),
    ]:
        p = sub.add_parser(op, help=help_text)
        p.add_argument("left")
        p.add_argument("right")
        add_kmax(p)
        p.set_defaults(fn=cmd_binary, op=op)

    p = sub.add_parser("chain", help="iterate merging from the zero object")
    p.add_argument("instance")
    p.add_argument("--steps", type=int, default=3)
    add_kmax(p)
    p.set_defaults(fn=cmd_chain)

    p = sub.add_parser("compose", help="compose two morphism files (first, then second)")
    p.add_argument("first")
    p.add_argument("second")
    add_kmax(p)
    p.set_defaults(fn=cmd_compose)

    p = sub.add_parser("flux", help="print the information flux of a morphism file")
    p.add_argument("morphism")
    add_kmax(p)
    p.set_defaults(fn=cmd_flux)

    p = sub.add_parser("classify", help="classify a morphism file (mono/epi/iso)")
    p.add_argument("morphism")
    add_kmax(p)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser(
        "classify-subobject", help="characteristic arrow of a subobject inclusion"
    )
    p.add_argument("subobject")
    p.add_argument("ambient")
    add_kmax(p)
    p.add_argument("--max-relations", type=int, default=2)
    p.set_defaults(fn=cmd_classify_subobject)

    for name in ("check", "probe"):
        p = sub.add_parser(
            name,
            help="run a property suite"
            + (" (alias of check)" if name == "probe" else ""),
        )
        if name == "check":
            p.add_argument("suite", choices=SUITE_NAMES)
        else:
            p.add_argument("--suite", dest="suite", choices=SUITE_NAMES, required=True)
        p.add_argument("--domain", default="a,b", help="comma-separated constants")
        add_kmax(p)
        p.add_argument("--max-relations", type=int, default=DEFAULT_MAX_RELATIONS)
        p.add_argument(
            "--max-instances",
            type=int,
            help=f"instance cap (default VIEWFLUX_MAX_ENUM, else {DEFAULT_MAX_INSTANCES})",
        )
        p.add_argument("--timings", action="store_true", help="append elapsed time")
        p.set_defaults(fn=cmd_check)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ViewfluxError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
