"""Coverage for the smaller corners: error hierarchy, wrappers, reprs,
and the odd defaults that the larger tests route around."""

import pytest

from repro.certification import (
    ConstantDecoder,
    FunctionDecoder,
    FunctionProver,
    LCP,
)
from repro.certification.prover import reject_promise
from repro.errors import (
    CertificationError,
    EdgeNotFoundError,
    ExperimentError,
    GraphError,
    IdentifierAssignmentError,
    LabelingError,
    NodeNotFoundError,
    PortAssignmentError,
    PromiseViolationError,
    RealizabilityError,
    ReproError,
    ViewError,
)
from repro.graphs import cycle_graph, path_graph
from repro.local import Instance, Labeling

from .simulator import EdgeRecord, Message, NodeRecord


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "error_cls",
        [
            GraphError,
            PortAssignmentError,
            IdentifierAssignmentError,
            LabelingError,
            ViewError,
            PromiseViolationError,
            CertificationError,
            RealizabilityError,
            ExperimentError,
        ],
    )
    def test_all_derive_from_repro_error(self, error_cls):
        assert issubclass(error_cls, ReproError)

    def test_node_not_found_payload(self):
        error = NodeNotFoundError(42)
        assert error.node == 42
        assert "42" in str(error)

    def test_edge_not_found_payload(self):
        error = EdgeNotFoundError(1, 2)
        assert error.edge == (1, 2)


class TestWrappers:
    def test_function_prover_roundtrip(self):
        prover = FunctionProver(
            lambda instance: Labeling.uniform(instance.graph, "x"), name="constant"
        )
        instance = Instance.build(path_graph(3))
        labeling = prover.certify(instance)
        assert labeling.of(0) == "x"
        assert prover.name == "constant"
        assert len(list(prover.all_certifications(instance))) == 1

    def test_function_prover_all_fn(self):
        prover = FunctionProver(
            lambda instance: Labeling.uniform(instance.graph, 0),
            all_fn=lambda instance: iter(
                [Labeling.uniform(instance.graph, i) for i in (0, 1)]
            ),
        )
        instance = Instance.build(path_graph(2))
        assert len(list(prover.all_certifications(instance))) == 2

    def test_constant_decoder(self):
        from repro.local import extract_view

        instance = Instance.build(path_graph(2), labeling=Labeling.uniform(path_graph(2), "c"))
        view = extract_view(instance, 0, 1)
        assert ConstantDecoder(True).decide(view)
        assert not ConstantDecoder(False).decide(view)
        assert "True" in ConstantDecoder(True).name

    def test_function_decoder_name(self):
        decoder = FunctionDecoder(lambda view: True, name="custom")
        assert decoder.name == "custom"

    def test_reject_promise_helper(self):
        instance = Instance.build(path_graph(2))
        error = reject_promise(instance, "test reason")
        assert isinstance(error, PromiseViolationError)
        assert "test reason" in str(error)


class TestLCPBaseBehavior:
    def _minimal_lcp(self, k: int = 2) -> LCP:
        from repro.certification import EnumerativeLCP

        lcp = EnumerativeLCP(ConstantDecoder(True), ["c"], k=k)
        return lcp

    def test_yes_no_instances_k2(self):
        lcp = self._minimal_lcp()
        assert lcp.is_yes_instance(path_graph(3))
        assert not lcp.is_yes_instance(cycle_graph(5))
        assert lcp.is_no_instance(cycle_graph(5))
        assert not lcp.is_no_instance(path_graph(3))

    def test_k3_supported(self):
        lcp = self._minimal_lcp(k=3)
        from repro.graphs import complete_graph

        assert lcp.is_yes_instance(complete_graph(3))
        assert lcp.is_no_instance(complete_graph(4))

    def test_labeling_bits_is_max(self):
        from repro.core import ShatterLCP

        lcp = ShatterLCP()
        instance = Instance.build(path_graph(6))
        labeling = lcp.prover.certify(instance)
        per_node = [
            lcp.certificate_bits(labeling.of(v), instance.n, instance.id_bound)
            for v in instance.graph.nodes
        ]
        assert lcp.labeling_bits(labeling, instance.n, instance.id_bound) == max(per_node)


class TestMessages:
    def test_edge_record_canonical(self):
        a = EdgeRecord.canonical(1, 2, 0, 1)
        b = EdgeRecord.canonical(0, 1, 1, 2)
        assert a == b

    def test_message_size_units(self):
        record = NodeRecord(uid=0, ident=1, label=None)
        message = Message(
            sender_record=record,
            sender_port=1,
            node_records=frozenset({record}),
            edge_records=frozenset(),
        )
        assert message.size_units() == 2


class TestReprs:
    def test_instance_repr(self):
        assert "unlabeled" in repr(Instance.build(path_graph(2)))
        labeled = Instance.build(path_graph(2)).with_labeling(
            Labeling.uniform(path_graph(2), 0)
        )
        assert "labeled" in repr(labeled)

    def test_view_repr(self):
        from repro.local import extract_view

        view = extract_view(Instance.build(path_graph(2)), 0, 1)
        assert "View(" in repr(view)
        anon = view.anonymized()
        assert "anon" in repr(anon)

    def test_graph_repr(self):
        assert repr(path_graph(3)) == "Graph(order=3, size=2)"

    def test_port_and_id_reprs(self):
        from repro.local import IdentifierAssignment, PortAssignment

        assert "PortAssignment" in repr(PortAssignment.canonical(path_graph(2)))
        assert "max=2" in repr(IdentifierAssignment.canonical(path_graph(2)))


class TestRunnerUtilities:
    def test_format_table(self):
        from repro._util import format_table

        text = format_table(["a", "bb"], [[1, 22], [333, 4]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")

    def test_run_all_and_save(self, tmp_path, monkeypatch):
        """The runner writes a report; patched to two fast experiments."""
        from repro.experiments import registry as reg
        from repro.experiments import runner

        fast = [reg.get_experiment("fig2"), reg.get_experiment("fig7")]
        monkeypatch.setattr(runner, "all_experiments", lambda: fast)
        target = tmp_path / "report.txt"
        ok = runner.run_all_and_save(target, verbose=False)
        assert ok
        text = target.read_text()
        assert "fig2" in text and "summary" in text
