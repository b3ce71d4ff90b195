import random

import pytest

from namefix.fix import CaptureKind, find_capture, name_fix
from namefix.graph import alpha_equiv, is_bipartite
from namefix.simpl import (
    SIMPL_RESOLVER,
    eval_simpl,
    fdef_body,
    fdef_name,
    fdef_params,
    parse_simpl,
    pretty_simpl,
    prog_fdefs,
    prog_main,
    resolve_simpl,
)
from namefix.statemachine import (
    ParseError,
    compile_fixed,
    compile_machine,
    machine_states,
    parse_stm,
    pretty_stm,
    resolve_machine,
    state_name,
    state_transitions,
    trans_event,
    trans_target,
)
from namefix.term import (
    InconsistentLabel,
    Label,
    Name,
    Provenance,
    fold,
    iter_names,
    labels_of,
    rename,
)

import reference
from gen import gen_machine_source, machine_renaming


def lbl(i: int, synth: bool = False) -> Label:
    return Label(i, Provenance.SYNTHESIZED if synth else Provenance.SOURCE)


DOOR = """state opened
  close => closed
state closed
  open => opened
  lock => locked
state locked
  unlock => closed
"""

# The same machine with the state `locked` consistently renamed to a name
# that collides with a function name the compiler synthesizes.
DOOR_RENAMED = """state opened
  close => closed
state closed
  lock => opened-dispatch
  open => opened
state opened-dispatch
  unlock => closed
"""


class TestParsing:
    def test_door_machine_shape(self):
        m = parse_stm(DOOR)
        states = machine_states(m)
        assert [state_name(s).text for s in states] == ["opened", "closed", "locked"]
        assert [len(state_transitions(s)) for s in states] == [1, 2, 1]
        (t,) = state_transitions(states[0])
        assert trans_event(t) == "close"
        assert trans_target(t).text == "closed"

    def test_labels_distinct(self):
        m = parse_stm(DOOR)
        names = list(iter_names(m))
        assert len({n.label.id for n in names}) == len(names)

    def test_comments_blank_lines_and_end(self):
        m = parse_stm("// door\nstate a\n\n  go => a\nend\n")
        (s,) = machine_states(m)
        assert state_name(s).text == "a"

    def test_input_after_end_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_stm("state a\nend\nstate b\n")
        assert err.value.line == 3

    def test_transition_before_state_rejected(self):
        with pytest.raises(ParseError):
            parse_stm("go => a\n")

    def test_duplicate_pin_rejected(self):
        with pytest.raises(ParseError):
            parse_stm("state a@401\n  go => a@401\n")

    def test_invalid_pinned_name_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_stm("state a\n  go => b c@402\n")
        assert err.value.line == 2

    def test_pretty_parse_fixpoint(self):
        m = parse_stm(DOOR)
        text = pretty_stm(m)
        assert pretty_stm(parse_stm(text)) == text


class TestResolve:
    def test_door_graph(self):
        m = parse_stm(
            """state opened@411
  close => closed@412
state closed@413
  open => opened@414
  lock => locked@415
state locked@416
  unlock => closed@417
"""
        )
        g = resolve_machine(m)
        assert reference.rho(g) == {
            lbl(412): lbl(413),
            lbl(414): lbl(411),
            lbl(415): lbl(416),
            lbl(417): lbl(413),
        }
        assert is_bipartite(g)

    def test_dangling_target_unbound(self):
        g = resolve_machine(parse_stm("state a@421\n  go => nowhere@422\n"))
        assert g.bindings(lbl(422)) == frozenset()

    def test_duplicate_states_last_wins(self):
        m = parse_stm("state a@431\nstate a@432\nstate b@433\n  go => a@434\n")
        g = resolve_machine(m)
        assert g.bindings(lbl(434)) == {lbl(432)}

    def test_reference_with_duplicated_declaration_label_binds_there(self):
        # a compiled machine mentions each state's declaration label twice;
        # the second occurrence must keep binding to itself
        m = parse_stm("state a@441\nstate a@442\n")
        target = compile_machine(m)
        g = resolve_simpl(target)
        assert (lbl(441), lbl(441)) in g.edges
        assert (lbl(442), lbl(442)) in g.edges


class TestCompile:
    def test_state_constants_are_indices(self):
        p = compile_machine(parse_stm(DOOR))
        consts = prog_fdefs(p)[:3]
        assert [fdef_name(f).text for f in consts] == ["opened", "closed", "locked"]
        assert [pretty_simpl(fdef_body(f)) for f in consts] == ["0", "1", "2"]

    def test_door_machine_compiles_to_expected_text(self):
        p = compile_machine(parse_stm(DOOR))
        assert pretty_simpl(p) == (
            "fun opened() = 0;\n"
            "fun closed() = 1;\n"
            "fun locked() = 2;\n"
            'fun opened-dispatch(event) = if event == "close" then closed() '
            "else error();\n"
            'fun closed-dispatch(event) = if event == "open" then opened() '
            'else if event == "lock" then locked() else error();\n'
            'fun locked-dispatch(event) = if event == "unlock" then closed() '
            "else error();\n"
            "fun main(state, event) = if state == opened() then "
            "opened-dispatch(event) else if state == closed() then "
            "closed-dispatch(event) else if state == locked() then "
            "locked-dispatch(event) else error();\n"
        )

    def test_declaration_labels_reused_in_output(self):
        m = parse_stm("state a@451\n  go => a@452\n")
        p = compile_machine(m)
        assert lbl(451) in labels_of(p)
        assert lbl(452) in labels_of(p)

    @pytest.mark.parametrize("src, first", [
        ("state a@5\n  go => b@90\nstate b@7\n", 91),
        ("state a@95\n  go => b@9\nstate b@10\n  go => a@11\n", 96),
        ("", 1),
    ])
    def test_fresh_ids_follow_the_largest_id_of_the_machine(self, src, first):
        p = compile_machine(parse_stm(src))
        fresh = sorted(n.label.id for n in iter_names(p) if n.label.synthesized)
        assert fresh == list(range(first, first + len(fresh)))

    def test_synthesized_names_are_marked_synthesized(self):
        m = parse_stm(DOOR)
        source_ids = {v.id for v in labels_of(m)}
        p = compile_machine(m)
        for n in iter_names(p):
            assert (n.label.id in source_ids) == (
                n.label.provenance is Provenance.SOURCE
            )

    def test_compile_fixed_rejects_a_label_spelled_two_ways(self):
        """compile_machine reads no spellings; the resolve of the machine
        that compile_fixed repairs against rejects a corrupt one."""
        m = parse_stm(DOOR)
        a, b = (state_name(s) for s in machine_states(m)[:2])
        corrupt = fold(m, lambda n: Name(n.text, a.label) if n is b else n)
        with pytest.raises(InconsistentLabel):
            compile_fixed(corrupt)

    def test_compiled_door_machine_runs(self):
        p = compile_fixed(parse_stm(DOOR))
        src = pretty_simpl(p)
        # drive it: from closed (1), "open" goes to opened (0)
        run = parse_simpl(src + 'main(closed(), "open")')
        assert eval_simpl(run) == 0
        run2 = parse_simpl(src + 'main(opened(), "close")')
        assert eval_simpl(run2) == 1


class TestCompileFixed:
    def test_clean_machine_needs_no_repair(self):
        m = parse_stm(DOOR)
        naive = compile_machine(m)
        assert compile_fixed(m) is naive or compile_fixed(m) == naive

    def test_renamed_machine_single_capture_edge(self):
        m = parse_stm(DOOR_RENAMED)
        capture = find_capture(
            resolve_machine(m), resolve_simpl(compile_machine(m))
        )
        (edge,) = capture.edges
        assert edge.kind is CaptureKind.SOURCE_REBOUND
        # the captured reference is the lock-transition target
        lock_target = trans_target(state_transitions(machine_states(m)[1])[0])
        assert edge.ref == lock_target.label
        assert edge.decl.provenance is Provenance.SYNTHESIZED

    def test_renamed_machine_repaired_in_one_iteration(self):
        m = parse_stm(DOOR_RENAMED)
        result = name_fix(resolve_machine(m), compile_machine(m), SIMPL_RESOLVER)
        assert len(result.trace) == 1
        renamed = [
            n for n in iter_names(result.term) if n.text == "opened-dispatch0"
        ]
        assert len(renamed) == 2
        assert all(n.label.provenance is Provenance.SYNTHESIZED for n in renamed)
        # the source's own opened-dispatch state keeps its name
        assert any(
            n.text == "opened-dispatch"
            and n.label.provenance is Provenance.SOURCE
            for n in iter_names(result.term)
        )

    def test_fixed_output_alpha_equivalent_to_unrenamed_compile(self):
        m = parse_stm(DOOR)
        spell = {n.label: n.text for n in iter_names(m)}
        sigma = {
            v: "opened-dispatch" for v in labels_of(m) if spell[v] == "locked"
        }
        m2 = rename(m, sigma)
        assert alpha_equiv(compile_fixed(m), compile_fixed(m2), SIMPL_RESOLVER)

    def test_no_capture_left_after_fixing(self):
        rng = random.Random(23)
        for _ in range(100):
            m = parse_stm(gen_machine_source(rng))
            fixed = compile_fixed(m)
            assert not find_capture(resolve_machine(m), resolve_simpl(fixed))

    def test_random_consistent_renamings_give_alpha_equivalent_output(self):
        rng = random.Random(29)
        for _ in range(100):
            m = parse_stm(gen_machine_source(rng))
            m2 = rename(m, machine_renaming(rng, m))
            assert alpha_equiv(compile_fixed(m), compile_fixed(m2), SIMPL_RESOLVER)
