"""Command-line interface.

Instances live in plain-text files (see formats); commands print closed
instances back in the same format with views auto-named v1, v2, ... in
canonical order.  The ``check`` command runs the property suites and exits
nonzero exactly when a law fails; flagged entries (documented divergences)
keep the zero exit status.  Every command builds its configuration in
``_cfg``, where VIEWFLUX_MAX_ENUM overrides the enumeration bounds (the views
of a closure, the instances of a run and the triples of them the suites walk,
the sets of atoms a closed-subset enumeration closes).
One call builds only the parsers it needs: the top-level parser and that of
the command its first argument names, or every command's when it names none
(no arguments, ``--help``, an unknown command), so help and usage errors read
the same either way.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from functools import partial

from .catops import matching, merging, omega_chain
from .closure import po_leq, power_view, support, total_object
from .core import Instance, UniverseConfig
from .errors import ViewfluxError
from .formats import load_instance, load_morphism, render_closed, render_instance
from .morphisms import compose, is_epi, is_iso, is_mono, semantic_arrow
from .queries import evaluate, parse_query
from .suites import DEFAULT_MAX_RELATIONS, SUITE_NAMES, render_report, run_suite
from .topos import classifier, distance


def _cfg(domain, k_max: int) -> UniverseConfig:
    """Every command's configuration: default bounds, or VIEWFLUX_MAX_ENUM's when set."""
    env = os.environ.get("VIEWFLUX_MAX_ENUM")
    if not env:
        return UniverseConfig(domain, k_max)
    if not env.strip().isdecimal() or int(env) < 1:
        raise ViewfluxError(f"VIEWFLUX_MAX_ENUM must be a positive integer, got {env!r}")
    return UniverseConfig(domain, k_max, max_universe=int(env), max_enumeration=int(env))


def _load_pair(path_a, path_b, k_max):
    a, dom_a = load_instance(path_a)
    b, dom_b = load_instance(path_b)
    if dom_a != dom_b:
        raise ViewfluxError("the two instance files declare different domains")
    return a, b, _cfg(dom_a, k_max)


def _print_closed(inst, domain) -> None:
    sys.stdout.write(render_instance(inst, domain))


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
    sys.stdout.write(render_closed(support(inst.relations, cfg), domain))
    return 0


def cmd_total(args) -> int:
    cfg = _cfg(args.domain.split(","), args.kmax)
    _print_closed(total_object(cfg), cfg.domain)
    return 0


def cmd_binary(args) -> int:
    a, b, cfg = _load_pair(args.left, args.right, args.kmax)
    op = {"match": matching, "merge": merging, "homobj": matching, "distance": distance}
    _print_closed(op[args.command](a, b, cfg), cfg.domain)
    return 0


def cmd_chain(args) -> int:
    inst, domain = load_instance(args.instance)
    cfg = _cfg(domain, args.kmax)
    for i, step in enumerate(omega_chain(inst, cfg, args.steps)):
        sys.stdout.write(f"# step {i}\n")
        _print_closed(step, domain)
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
    config = partial(_cfg, k_max=args.kmax)
    first, second = load_morphism(args.first, config), load_morphism(args.second, config)
    composite = compose(second, first)  # apply first, then second
    sys.stdout.write(f"# composite of {args.first} then {args.second}\n")
    sys.stdout.write(f"# classification: {_classification(composite)}\n")
    sys.stdout.write("# flux:\n")
    _print_closed(composite.flux, composite.cfg.domain)
    return 0


def cmd_flux(args) -> int:
    f = load_morphism(args.morphism, partial(_cfg, k_max=args.kmax))
    _print_closed(f.flux, f.cfg.domain)
    return 0


def cmd_classify(args) -> int:
    f = load_morphism(args.morphism, partial(_cfg, k_max=args.kmax))
    sys.stdout.write(_classification(f) + "\n")
    return 0


def cmd_classify_subobject(args) -> int:
    a, b, cfg = _load_pair(args.subobject, args.ambient, args.kmax)
    if not po_leq(a, b, cfg):
        raise ViewfluxError("the first instance is not a subobject of the second")
    mono = semantic_arrow(a, b, power_view(a, cfg), cfg)
    char, report = classifier(mono, cfg)
    sys.stdout.write("# characteristic arrow generators:\n")
    _print_closed(Instance(report.generators, {}), cfg.domain)
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
    report = run_suite(args.suite, cfg, args.max_relations)
    sys.stdout.write(render_report(report, timings=args.timings))
    return 0 if report.ok else 1


_KMAX = ("--kmax", {"type": int, "default": 1, "help": "view-arity cap (default 1)"})

# Each command's help, arguments (a name, or a name and its add_argument
# options, in help order) and handler.
COMMANDS = {
    "eval": ("evaluate a query against an instance file", ("instance", "query"), cmd_eval),
    "closure": ("print all views of an instance", ("instance", _KMAX), cmd_closure),
    "total": ("print the total object of a configuration",
              (("--domain", {"required": True, "help": "comma-separated constants"}), _KMAX),
              cmd_total),
    "match": ("intersection of the view closures", ("left", "right", _KMAX), cmd_binary),
    "merge": ("closure of the union", ("left", "right", _KMAX), cmd_binary),
    "homobj": ("internal hom of two instances", ("left", "right", _KMAX), cmd_binary),
    "distance": ("distance between two instances", ("left", "right", _KMAX), cmd_binary),
    "chain": ("iterate merging from the zero object",
              ("instance", ("--steps", {"type": int, "default": 3}), _KMAX), cmd_chain),
    "compose": ("compose two morphism files (first, then second)",
                ("first", "second", _KMAX), cmd_compose),
    "flux": ("print the information flux of a morphism file", ("morphism", _KMAX), cmd_flux),
    "classify": ("classify a morphism file (mono/epi/iso)", ("morphism", _KMAX), cmd_classify),
    "classify-subobject": ("characteristic arrow of a subobject inclusion",
                           ("subobject", "ambient", _KMAX), cmd_classify_subobject),
    "check": ("run a property suite",
              (("suite", {"choices": SUITE_NAMES}),
               ("--domain", {"default": "a,b", "help": "comma-separated constants"}),
               _KMAX,
               ("--max-relations", {"type": int, "default": DEFAULT_MAX_RELATIONS}),
               ("--timings", {"action": "store_true", "help": "append elapsed time"})),
              cmd_check),
}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = argparse.ArgumentParser(
        prog="viewflux",
        description="Finite model of the category of database instances "
        "and view-based morphisms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Usage lines and the invalid-choice error read the choices: every
    # command, even when only the named command's parser is built below.
    sub.choices = COMMANDS
    # The parser of the command argv[0] names, or every command's if none.
    for name in [n for n in argv[:1] if n in COMMANDS] or COMMANDS:
        help_text, arguments, _ = COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        for arg in arguments:
            flag, options = (arg, {}) if isinstance(arg, str) else arg
            p.add_argument(flag, **options)
    args = parser.parse_args(argv)
    # The collections the command triggers skip what exists before it, the
    # loaded modules above all: otherwise a call's time depends on whether
    # the imports left an older-generation collection due within it.
    gc.freeze()
    try:
        return COMMANDS[args.command][2](args)
    except (ViewfluxError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    finally:
        gc.unfreeze()


if __name__ == "__main__":
    sys.exit(main())
