"""Bind-time composition: splice the stage ticks into one cycle kernel.

The stage modules are the single source of truth for the timing model —
each owns its prologue (the working-set bindings at the top of
``bind``), its per-cycle ``tick`` body, and its ``finish`` accounting.
The portable kernel in :meth:`Processor._portable_kernel` composes them
by closure calls: correct, debuggable, and the shape the interface
contract is written against.  But at ~3 tick calls per simulated cycle,
CPython's call machinery (frame setup, default re-binding, return-tuple
packing, and the interpreter-state churn of crossing function
boundaries) costs 15-20% of the whole simulation — measured against the
fused-loop ancestor this refactor decomposed.

This module recovers that loss without giving up the decomposition: it
extracts each stage's prologue and tick body *from the stage source*
(``ast`` + source-line slicing, so the modules stay ordinary readable
Python) and splices them into the source of one generated function —
every stage guard and body inline in a single frame, exactly the shape
of the fused ancestor.  :mod:`repro.core.stages.specialize` folds a
machine's config constants into that source and compiles it, and the
result is the only kernel solo runs and mixes execute.

The generated function is a **per-core cycle generator**,
``_fused_run(self, state, limit)``.  Its loop head is ``now = yield
wake``: the driver (:func:`repro.core.processor.step_cores`) sends the
cycle to simulate, and the generator answers with the earliest cycle it
next needs to run — the cycle skip sets ``wake`` to the next scheduled
event instead of advancing a clock of its own.  On completion (every
instruction committed, or ``now`` past ``limit``) it writes its state
back, runs every stage's ``finish`` and returns ``(now, committed,
index, shares, exceeded, n_skip_rob_full)``, the tuple
:meth:`Processor._portable_kernel` also returns.  The golden equivalence
suite pins the kernel to the seed reference bit-identically, and
``tests/core/test_kernel_specialize.py`` pins it to the portable kernel
across configs and policies, so the two compositions cannot drift apart.

Splicing rules the stage modules must follow (enforced here, loudly):

- prologue statements are single-target assignments; a name bound by
  two stages must be bound by the *same source text* (the composer
  dedupes by text and raises on conflict);
- every tick default is an identity re-binding (``name=name``) of a
  prologue name, so the spliced body resolves to the prologue binding;
- tick positional parameters are exactly the kernel's per-cycle scalars
  (same names, so splicing needs no renaming);
- a tick body has no ``return`` except an optional trailing
  ``return <scalars>`` (stripped: the scalars are already kernel
  locals);
- ``finish`` takes no parameters and ends with a single trailing
  ``return <shares-dict>``.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Tuple

from repro.core.stages import commit as commit_stage
from repro.core.stages import dispatch as dispatch_stage
from repro.core.stages import issue as issue_stage
from repro.core.stages import memory as memory_stage
from repro.core.stages import writeback as writeback_stage

#: (module, stage key, expected tick positional parameters).  Order is
#: the in-cycle stage order; prologues are emitted in the same order, so
#: a deduped shared binding is always defined before later stages use it.
_STAGES = (
    (commit_stage, "commit",
     ("now", "rob_count", "committed_total", "l1_avail", "lvc_avail")),
    (writeback_stage, "writeback", ("now",)),
    (memory_stage, "memory",
     ("now", "l1_avail", "lvc_avail", "lsq_unserviced", "lvaq_unserviced")),
    (issue_stage, "issue", ("now",)),
    (dispatch_stage, "dispatch",
     ("now", "index", "rob_count", "lsq_unserviced", "lvaq_unserviced")),
)

class ComposeError(RuntimeError):
    """A stage module violated the splicing rules."""


def _block(lines: List[str], first: ast.stmt, last: ast.stmt,
           from_indent: int, to_indent: int) -> str:
    """Source text of ``first..last`` re-indented for the splice site."""
    raw = lines[first.lineno - 1:last.end_lineno]
    shift = to_indent - from_indent
    out = []
    for ln in raw:
        if not ln.strip():
            out.append("")
        elif shift >= 0:
            out.append(" " * shift + ln)
        else:
            out.append(ln[-shift:])
    return "\n".join(out)


def _stage_parts(module, key: str, positional: Tuple[str, ...],
                 lines_cache: Dict[str, List[str]]):
    """Extract (prologue stmts, tick body, finish body) from a stage."""
    path = module.__file__
    with open(path, "r", encoding="utf-8") as fh:
        src = fh.read()
    lines = src.split("\n")
    lines_cache[key] = lines
    tree = ast.parse(src)
    bind = next(n for n in tree.body
                if isinstance(n, ast.FunctionDef) and n.name == "bind")

    prologue: List[Tuple[str, str]] = []  # (target, dedented text)
    tick: Optional[ast.FunctionDef] = None
    finish: Optional[ast.FunctionDef] = None
    for stmt in bind.body:
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value,
                                                     ast.Constant):
            continue  # docstring
        if isinstance(stmt, ast.FunctionDef):
            if stmt.name == "tick":
                tick = stmt
            elif stmt.name == "finish":
                finish = stmt
            continue
        if isinstance(stmt, ast.Return):
            continue  # `return tick, finish`
        if not (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)):
            raise ComposeError(
                f"{key}: prologue statement at line {stmt.lineno} is not "
                f"a single-name assignment")
        text = _block(lines, stmt, stmt, 4, 4)
        prologue.append((stmt.targets[0].id, text))
    if tick is None or finish is None:
        raise ComposeError(f"{key}: bind() must define tick and finish")

    # --- tick: check the interface, then slice the body --------------
    args = tick.args
    if args.posonlyargs or args.kwonlyargs or args.vararg or args.kwarg:
        raise ComposeError(f"{key}: tick must use plain parameters")
    names = [a.arg for a in args.args]
    n_pos = len(names) - len(args.defaults)
    if tuple(names[:n_pos]) != positional:
        raise ComposeError(
            f"{key}: tick positional parameters {names[:n_pos]} != "
            f"expected {list(positional)}")
    for name, default in zip(names[n_pos:], args.defaults):
        if not (isinstance(default, ast.Name) and default.id == name):
            raise ComposeError(
                f"{key}: tick default {name}={ast.unparse(default)} is "
                f"not an identity re-binding")

    body = [s for s in tick.body if not isinstance(s, ast.Nonlocal)]
    if body and isinstance(body[-1], ast.Return):
        ret = body.pop()
        value = ret.value
        elts = (value.elts if isinstance(value, ast.Tuple) else [value])
        for e in elts:
            if not (isinstance(e, ast.Name)
                    and e.id in positional):
                raise ComposeError(
                    f"{key}: tick trailing return must only name "
                    f"positional scalars, got {ast.unparse(ret)}")
    for node in ast.walk(ast.Module(body=body, type_ignores=[])):
        if isinstance(node, (ast.Return, ast.FunctionDef, ast.Lambda)):
            raise ComposeError(
                f"{key}: tick body may not contain nested returns, "
                f"defs or lambdas (line {node.lineno})")
    if not body:
        raise ComposeError(f"{key}: tick body is empty")
    tick_text = (body[0], body[-1])

    # --- finish: statements plus the trailing shares dict ------------
    if finish.args.args:
        raise ComposeError(f"{key}: finish must take no parameters")
    fbody = list(finish.body)
    if not (fbody and isinstance(fbody[-1], ast.Return)
            and fbody[-1].value is not None):
        raise ComposeError(f"{key}: finish must end with `return <dict>`")
    fret = fbody.pop()
    for node in ast.walk(ast.Module(body=fbody, type_ignores=[])):
        if isinstance(node, ast.Return):
            raise ComposeError(f"{key}: finish has a mid-body return")
    return prologue, tick_text, (fbody, fret)


# The kernel skeleton.  ``{...}`` slots receive the spliced stage text;
# everything else mirrors Processor._portable_kernel line for line, except
# that the clock belongs to the driver (the cross-kernel equivalence test
# keeps them honest).
_KERNEL_TEMPLATE = """\
def _fused_run(self, state, limit):
    insts = state.insts
{prologues}
    # ---- kernel-owned scalars ----------------------------------------
    index = 0
    rob_count = len(rob_entries)
    lsq_unserviced = lsq.unserviced_loads
    lvaq_unserviced = lvaq.unserviced_loads
    l1_new_cycle = l1_ports.new_cycle
    lvc_new_cycle = lvc_ports.new_cycle if have_lvc else None
    l1_nports = l1_ports.ports
    l1_avail = l1_ports._available if l1_simple else 0
    l1_sat = 0
    lvc_nports = lvc_ports.ports if have_lvc else 0
    lvc_avail = lvc_ports._available if lvc_simple else 0
    lvc_sat = 0
    now = self.now
    committed_total = self._committed
    n_skip_rob_full = 0
    exceeded = False
    wake = 0
    try:
        while committed_total < total:
            now = yield wake
            if now > limit:
                exceeded = True
                break
            # ---- new cycle: refill the port budgets ---------------
            if l1_simple:
                if l1_avail == 0:
                    l1_sat += 1
                l1_avail = l1_nports
            else:
                l1_new_cycle()
            if have_lvc:
                if lvc_simple:
                    if lvc_avail == 0:
                        lvc_sat += 1
                    lvc_avail = lvc_nports
                else:
                    lvc_new_cycle()
            # ---- commit -------------------------------------------
            if rob_count and rob_entries[0].state == 2:
{commit}
            # ---- writeback ----------------------------------------
            if store_done or overflow or ring[now & MASK]:
{writeback}
            # ---- memory -------------------------------------------
            if lsq_unserviced or lvaq_unserviced:
{memory}
            # ---- issue --------------------------------------------
            if sleep or ready_fifo or woken:
{issue}
            # ---- dispatch -----------------------------------------
            if index < total:
{dispatch}
            # ---- cycle skip ---------------------------------------
            if (not ready_fifo
                    and not woken
                    and not store_done
                    and (index >= total or rob_count >= rob_size)
                    and lsq_unserviced == 0
                    and lvaq_unserviced == 0
                    and committed_total < total
                    and rob_count
                    and rob_entries[0].state != 2):
                target = None
                for k in range(1, RING):
                    if ring[(now + k) & MASK]:
                        target = now + k
                        break
                if overflow:
                    for t in overflow:
                        if t > now and (target is None
                                        or t < target):
                            target = t
                # Sleeping entries wake at known cycles too (issue pops
                # the bucket for each cycle it ticks), so the skip may
                # jump straight to the earliest of them.
                if sleep:
                    for t in sleep:
                        if t > now and (target is None
                                        or t < target):
                            target = t
                cap = limit + 1
                if target is None or target > cap:
                    target = cap
                if target > now + 1:
                    if index < total:
                        n_skip_rob_full += target - now - 1
                    wake = target
    finally:
        self.now = now
        self._committed = committed_total
        lsq.unserviced_loads = lsq_unserviced
        lvaq.unserviced_loads = lvaq_unserviced
{finishes}
        _shares = {{}}
        for _fin in ({fin_names}):
            for _k, _v in _fin.items():
                _shares[_k] = _shares.get(_k, 0) + _v
        _l1_busy = _shares.pop("_l1_busy", 0)
        _lvc_busy = _shares.pop("_lvc_busy", 0)
        if l1_simple:
            l1_ports._available = l1_avail
            l1_ports.busy_transactions += _l1_busy
            l1_ports.cycles_saturated += l1_sat
        if lvc_simple:
            lvc_ports._available = lvc_avail
            lvc_ports.busy_transactions += _lvc_busy
            lvc_ports.cycles_saturated += lvc_sat
        _n_l1_fast = _shares.pop("_l1_fast", 0)
        _n_lvc_fast = _shares.pop("_lvc_fast", 0)
        if _n_l1_fast or _n_lvc_fast:
            _counts = state.counts
            _counts_get = _counts.get
            if _n_l1_fast:
                _k = state.l1_ka
                _counts[_k] = _counts_get(_k, 0) + _n_l1_fast
                _k = state.l1_kh
                _counts[_k] = _counts_get(_k, 0) + _n_l1_fast
            if _n_lvc_fast:
                _k = state.lvc_ka
                _counts[_k] = _counts_get(_k, 0) + _n_lvc_fast
                _k = state.lvc_kh
                _counts[_k] = _counts_get(_k, 0) + _n_lvc_fast
    return (now, committed_total, index, _shares, exceeded,
            n_skip_rob_full)
"""


def compose_source() -> str:
    """Build the cycle-generator source from the five stage modules."""
    lines_cache: Dict[str, List[str]] = {}
    prologue_lines: List[str] = []
    seen: Dict[str, str] = {}
    splices: Dict[str, str] = {}
    finish_parts: List[str] = []
    fin_names: List[str] = []

    for module, key, positional in _STAGES:
        prologue, (t_first, t_last), (fbody, fret) = _stage_parts(
            module, key, positional, lines_cache)
        for target, text in prologue:
            prior = seen.get(target)
            if prior is None:
                seen[target] = text
                prologue_lines.append(text)
            elif prior.strip() != text.strip():
                raise ComposeError(
                    f"{key}: prologue rebinds {target!r} with different "
                    f"source: {text.strip()!r} vs {prior.strip()!r}")
        splices[key] = _block(lines_cache[key], t_first, t_last, 8, 16)

        fin = f"_fin_{key}"
        fin_names.append(fin)
        part = []
        if fbody:
            part.append(_block(lines_cache[key], fbody[0], fbody[-1],
                               8, 8))
        part.append(f"        {fin} = {ast.unparse(fret.value)}")
        finish_parts.append("\n".join(part))

    return _KERNEL_TEMPLATE.format(
        prologues="\n".join(prologue_lines),
        commit=splices["commit"],
        writeback=splices["writeback"],
        memory=splices["memory"],
        issue=splices["issue"],
        dispatch=splices["dispatch"],
        finishes="\n".join(finish_parts),
        fin_names=", ".join(fin_names),
    )

