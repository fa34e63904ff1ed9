"""Command-line interface.

Instances live in plain-text files (see formats); commands print closed
instances back in the same format with views auto-named v1, v2, ... in
canonical order.  The ``check`` command runs the property suites and exits
nonzero exactly when a law fails; flagged entries (documented divergences)
keep the zero exit status.  Every command builds its configuration in
``_cfg``, where VIEWFLUX_MAX_ENUM overrides the enumeration bounds (the views
of a closure, the instances of a run and the triples of them the suites walk,
the sets of atoms a closed-subset enumeration closes).
A plain call (``_read_plain``: a command, its positionals in order and each of
its options at most once as ``--flag value``, every value valid) is read off
``COMMANDS`` without argparse.  Every other argument list reaches argparse
(``_parser``), which alone prints help and usage errors and reads the rarer
valid forms (``--flag=value``, an abbreviated flag, ``--``, a value starting
with ``-``, a repeated option); a plain call reads the same either way.
"""

from __future__ import annotations

import gc
import os
import sys
from functools import partial
from types import SimpleNamespace

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
    digits = env.strip()
    try:
        bound = int(digits) if digits.isdecimal() else 0
    except ValueError:  # past the interpreter's int_max_str_digits
        raise ViewfluxError(f"VIEWFLUX_MAX_ENUM has {len(digits)} digits, too many to read") from None
    if bound < 1:
        raise ViewfluxError(f"VIEWFLUX_MAX_ENUM must be a positive integer, got {env!r}")
    return UniverseConfig(domain, k_max, max_universe=bound, max_enumeration=bound)


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


def _arguments(command: str) -> list[tuple[str, dict]]:
    """Each of a command's arguments as its name and add_argument options."""
    return [(arg, {}) if isinstance(arg, str) else arg for arg in COMMANDS[command][1]]


def _read_plain(argv: list[str]) -> SimpleNamespace | None:
    """The arguments of a plain call (module docstring), as argparse reads
    them; None for any other ``argv``."""
    if not argv or argv[0] not in COMMANDS:
        return None
    specs = _arguments(argv[0])
    options = {flag: spec for flag, spec in specs if flag.startswith("-")}
    positionals = iter([name for name, _ in specs if name not in options])
    given = {}
    tokens = iter(argv[1:])
    for token in tokens:
        if token in options and token not in given:
            name = token
            if options[name].get("action") == "store_true":
                given[name] = True
                continue
            token = next(tokens, "-")  # a missing value is refused as a dash
        else:
            name = next(positionals, None)
        if name is None or token.startswith("-"):
            return None
        given[name] = token
    namespace = {"command": argv[0]}
    for name, spec in specs:
        if name in given:
            value = given[name]
            if "type" in spec:
                try:
                    value = spec["type"](value)
                except (TypeError, ValueError):
                    return None
            if value not in spec.get("choices", (value,)):
                return None
        elif name in options and not spec.get("required"):
            value = spec.get("default", False if spec.get("action") == "store_true" else None)
        else:
            return None
        namespace[name.lstrip("-").replace("-", "_")] = value
    return SimpleNamespace(**namespace)


def _parser():
    """The argument parser of every command: help, usage errors and the
    argument lists ``_read_plain`` leaves to it."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="viewflux",
        description="Finite model of the category of database instances "
        "and view-based morphisms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, options in _arguments(name):
            p.add_argument(flag, **options)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _read_plain(argv)
    if args is None:
        args = _parser().parse_args(argv)
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
