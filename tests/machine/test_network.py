"""Network simulation tests."""

import pytest

from repro.errors import MachineError
from repro.machine.cost_model import CostReport, SP2_COST_MODEL
from repro.machine.network import Network


def network(keep_log=True):
    report = CostReport()
    report.ensure_pes(4)
    return Network(SP2_COST_MODEL, report, keep_log=keep_log)


class TestSend:
    """Accounting of one transfer.  ``Network.send`` (which also copied
    the payload) is gone: arrays move their own data and every charge
    goes through ``record``/``record_batch``."""

    def test_message_recorded(self):
        net = network()
        net.record(0, 1, 4, 8, tag="ovl:U")
        assert net.message_count == 1
        assert net.log[0].src == 0 and net.log[0].dst == 1
        assert net.log[0].nbytes == 32
        assert net.log[0].tag == "ovl:U"
        assert net.report.message_bytes == 32

    def test_self_send_is_copy_not_message(self):
        net = network()
        net.record(2, 2, 16, 8)
        assert net.message_count == 0
        assert net.report.copies == 1
        assert net.report.copy_elements == 16

    def test_zero_size_rejected(self):
        net = network()
        with pytest.raises(MachineError):
            net.record(0, 1, 0, 8)

    def test_sender_charged(self):
        net = network()
        net.record(3, 0, 1000, 8)
        assert net.report.pe_times[3] == SP2_COST_MODEL.msg_time(8000)
        assert net.report.pe_times[0] == 0

    def test_log_disabled(self):
        net = network(keep_log=False)
        net.record(0, 1, 4, 8)
        assert net.log == []
        assert net.message_count == 1

    def test_tag_filter(self):
        net = network()
        net.record(0, 1, 4, 8, tag="ovl:U:d1:+1")
        net.record(0, 1, 4, 8, tag="ovl:V:d2:-1")
        assert len(net.messages_with_tag("ovl:U")) == 1


class TestRecordBatch:
    def test_empty_batch_is_a_noop(self):
        net = network()
        net.record_batch([], itemsize=8)
        assert net.message_count == 0
        assert net.report.copies == 0
        assert net.log == []
        assert net.report.pe_times == [0.0] * 4

    def test_matches_per_record_accounting(self):
        batched, looped = network(), network()
        transfers = [(0, 1, 4), (1, 2, 16), (3, 0, 4)]
        batched.record_batch(transfers, itemsize=8, tag="ovl:U")
        for src, dst, nelems in transfers:
            looped.record(src, dst, nelems, 8, tag="ovl:U")
        assert batched.report.pe_times == looped.report.pe_times
        assert batched.report.messages == looped.report.messages
        assert batched.report.message_bytes == \
            looped.report.message_bytes
        assert [(m.src, m.dst, m.nbytes, m.tag) for m in batched.log] \
            == [(m.src, m.dst, m.nbytes, m.tag) for m in looped.log]

    def test_mixed_self_sends_become_copies(self):
        net = network()
        net.record_batch([(0, 1, 4), (2, 2, 16), (3, 3, 4), (1, 0, 4)],
                         itemsize=8)
        assert net.message_count == 2  # the two cross-PE transfers
        assert net.report.copies == 2  # the two self-sends
        assert net.report.copy_elements == 20
        # self-sends never appear in the message log
        assert {(m.src, m.dst) for m in net.log} == {(0, 1), (1, 0)}

    def test_zero_element_entry_rejected(self):
        net = network()
        with pytest.raises(MachineError, match="zero-size"):
            net.record_batch([(0, 1, 4), (1, 2, 0)], itemsize=8)

    def test_grows_report_to_batch_pes(self):
        report = CostReport()  # starts with no PEs at all
        net = Network(SP2_COST_MODEL, report, keep_log=False)
        net.record_batch([(5, 1, 4)], itemsize=8)
        assert len(report.pe_times) >= 6


class TestAllreduceCharging:
    def test_logs_butterfly_rounds(self):
        net = network()
        net.allreduce(0, 4, tag="allreduce:SUM")
        assert net.message_count == 2  # ceil(log2 4) rounds
        assert all(m.tag == "allreduce:SUM" for m in net.log)
        assert all(m.src == 0 and m.nbytes == 8 for m in net.log)
        assert [m.dst for m in net.log] == [1, 2]

    def test_matches_legacy_per_round_charge(self):
        # the addend must be exactly msg_time(8) per round, as the old
        # unlogged reduction charging did
        net = network()
        net.allreduce(2, 4)
        expect = 2 * SP2_COST_MODEL.msg_time(8)
        assert net.report.pe_times[2] == expect
        assert net.report.pe_comm_times[2] == expect

    def test_partner_never_self_on_odd_counts(self):
        from repro.machine.network import butterfly_partner
        for npes in range(2, 12):
            rounds = (npes - 1).bit_length()
            for pe in range(npes):
                for rnd in range(rounds):
                    partner = butterfly_partner(pe, rnd, npes)
                    assert partner != pe
                    assert 0 <= partner < npes

    def test_single_pe_is_silent(self):
        net = network()
        net.allreduce(0, 1)
        assert net.message_count == 0
        assert net.report.pe_times == [0.0] * 4
