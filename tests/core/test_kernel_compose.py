"""The composer splices the stage sources into valid kernel source.

``repro.core.stages.compose`` extracts each stage's prologue, tick body
and finish accounting from the stage modules and splices them into the
source of one cycle generator, which ``repro.core.stages.specialize``
constant-folds and compiles.  Its bit-identity with the portable kernel
is pinned in ``test_kernel_specialize.py``; here the composer itself is
exercised structurally: the source it builds must parse, and it must
refuse a stage whose tick violates the splicing rules (mid-body return,
non-identity default), because a silent mis-splice would surface as a
subtly wrong timing model.
"""

import pytest


def test_compose_source_is_valid_python():
    import ast

    from repro.core.stages.compose import compose_source

    source = compose_source()
    ast.parse(source)
    # The five stage splices and the shared epilogue are all present.
    for marker in ("# ---- commit", "# ---- writeback", "# ---- memory",
                   "# ---- issue", "# ---- dispatch", "_fin_commit",
                   "_fin_dispatch"):
        assert marker in source


def test_composer_rejects_rule_violations():
    """The splicing rules are enforced, not assumed."""
    import textwrap
    import types

    from repro.core.stages import compose

    bad_return = types.ModuleType("bad_stage")
    bad_return.__file__ = "/tmp/bad_stage_return.py"
    source = textwrap.dedent(
        '''
        def bind(state):
            x = state.x

            def tick(now, x=x):
                if x:
                    return 1
                x += 1

            def finish():
                return {}

            return tick, finish
        '''
    )
    with open(bad_return.__file__, "w", encoding="utf-8") as handle:
        handle.write(source)
    with pytest.raises(compose.ComposeError):
        compose._stage_parts(bad_return, "bad", ("now",), {})

    bad_default = types.ModuleType("bad_stage2")
    bad_default.__file__ = "/tmp/bad_stage_default.py"
    source = textwrap.dedent(
        '''
        def bind(state):
            x = state.x

            def tick(now, y=x):
                y += 1

            def finish():
                return {}

            return tick, finish
        '''
    )
    with open(bad_default.__file__, "w", encoding="utf-8") as handle:
        handle.write(source)
    with pytest.raises(compose.ComposeError):
        compose._stage_parts(bad_default, "bad2", ("now",), {})
