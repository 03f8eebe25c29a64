"""The chaos layer: seeded schedules, jitter, fallback routing, harness.

Unit-level coverage for the deterministic pieces (timeline generation
and grammar, Retry-After jitter, rendezvous fallback) plus one real
quick-profile soak through :func:`repro.chaos.run_chaos` -- worker
kills, a journal disk fault, and a SIGSTOP stall against a live 2-shard
fleet.
"""

from __future__ import annotations

import pytest

from repro.chaos import (
    CHAOS_GRID,
    CHAOS_PROFILES,
    CORRUPT_MODES,
    ChaosConfig,
    ChaosEvent,
    churn_payload,
    describe_timeline,
    format_event,
    format_timeline,
    generate_timeline,
    oracle_jsonl,
    parse_event,
    parse_timeline,
    run_chaos,
)
from repro.server.admission import jittered_retry_after
from repro.shard import (
    RespawnPolicy,
    rendezvous_fallback,
    rendezvous_ranking,
    rendezvous_shard,
)


# ----------------------------------------------------------------------
# Timeline generation and grammar
# ----------------------------------------------------------------------
class TestSchedule:
    def test_same_seed_same_timeline(self):
        for profile in CHAOS_PROFILES:
            a = generate_timeline(7, 3, 30.0, profile)
            b = generate_timeline(7, 3, 30.0, profile)
            assert a == b
            assert format_timeline(a) == format_timeline(b)

    def test_different_seeds_differ(self):
        assert generate_timeline(7, 3, 30.0) != generate_timeline(8, 3, 30.0)

    def test_grammar_round_trips(self):
        events = generate_timeline(7, 3, 30.0)
        assert parse_timeline(format_timeline(events)) == events

    def test_parse_event_full_grammar(self):
        event = parse_event("stall@2.5:shard=1:duration=3")
        assert event == ChaosEvent(
            at=2.5, action="stall", shard=1, duration=3.0
        )
        event = parse_event("journal_fault@5:shard=2:mode=eio")
        assert event.mode == "eio"
        event = parse_event("crashloop@1:shard=0:count=0")
        assert event.count == 0
        event = parse_event("resize@3:shards=4")
        assert event == ChaosEvent(at=3.0, action="resize", shards=4)
        assert parse_event(format_event(event)) == event
        event = parse_event("hotspot@5:key=2:count=40")
        assert event == ChaosEvent(
            at=5.0, action="hotspot", key="2", count=40
        )
        assert parse_event(format_event(event)) == event

    def test_parse_durability_actions(self):
        event = parse_event("corrupt@2.5:shard=1:mode=mid")
        assert event == ChaosEvent(
            at=2.5, action="corrupt", shard=1, mode="mid"
        )
        assert parse_event(format_event(event)) == event
        for mode in CORRUPT_MODES:
            assert parse_event(f"corrupt@1:shard=0:mode={mode}").mode == mode
        event = parse_event("kill_compact@4:shard=0")
        assert event == ChaosEvent(at=4.0, action="kill_compact", shard=0)
        assert parse_event(format_event(event)) == event

    @pytest.mark.parametrize(
        "spec",
        [
            "",
            "kill",  # no @offset
            "kill@2",  # no shard
            "kill@2:shard=1:bogus=3",  # unknown operand
            "explode@2:shard=1",  # unknown action
            "stall@2:shard=1",  # stall without duration
            "journal_fault@2:shard=1:mode=sharknado",  # bad mode
            "kill@2:shard=1:shard=2",  # duplicate operand
            "kill@-1:shard=0",  # negative offset
            "resize@3",  # resize without a target size
            "resize@3:shard=1:shards=4",  # tier action takes no shard
            "resize@3:shards=0",  # fleet cannot shrink to nothing
            "hotspot@5",  # hotspot without a key
            "hotspot@5:shard=0:key=1",  # tier action takes no shard
            "kill@2:shard=1:shards=3",  # shards= only valid on resize
            "kill@2:shard=1:key=x",  # key= only valid on hotspot
            "corrupt@2:shard=1",  # corrupt requires a mode
            "corrupt@2:shard=1:mode=sideways",  # not a corrupt mode
            "kill_compact@2:shard=1:mode=mid",  # takes no mode
            "kill_compact@2",  # slot action needs a shard
        ],
    )
    def test_parse_rejects_bad_specs(self, spec):
        with pytest.raises(ValueError):
            parse_event(spec)

    def test_journal_fault_shard_is_never_killed_afterwards(self):
        # The invariant that makes disk-fault survival verifiable: a
        # dead worker would take its degraded journal evidence with it.
        for seed in range(25):
            for shards in (2, 3, 5):
                events = generate_timeline(seed, shards, 30.0)
                faults = [e for e in events if e.action == "journal_fault"]
                assert faults, "full profile always arms a journal fault"
                cutoff, victim = faults[0].at, faults[0].shard
                assert not any(
                    e.shard == victim
                    and e.at >= cutoff
                    and e.action in ("kill", "crashloop")
                    for e in events
                )

    def test_overlap_profile_structure(self):
        # The overlap profile is the multi-fault proof: a crash loop is
        # in flight when the tier grows, a disk fault lands during the
        # flux, and the fleet shrinks back before the final kill.
        for seed in (7, 11, 23):
            events = generate_timeline(seed, 2, 18.0, "overlap")
            actions = [e.action for e in events]
            assert actions[0] == "crashloop"
            assert actions[-1] == "kill"
            resizes = [e for e in events if e.action == "resize"]
            assert [e.shards for e in resizes] == [4, 2]
            hotspots = [e for e in events if e.action == "hotspot"]
            assert len(hotspots) == 1 and hotspots[0].key
            faults = [e for e in events if e.action == "journal_fault"]
            assert faults and 0 <= faults[0].shard < 2
            assert [e.at for e in events] == sorted(e.at for e in events)

    def test_latency_profile_is_ipc_delay_heavy(self):
        events = generate_timeline(7, 3, 30.0, "latency")
        delays = [e for e in events if e.action == "ipc_delay"]
        assert len(delays) >= 2
        assert all(e.duration > 0 for e in delays)
        assert sum(1 for e in events if e.action == "kill") == 1

    def test_durability_profile_structure(self):
        # The durability profile is the journal attack: two byte-level
        # corruptions (the second always a torn tail), one SIGKILL
        # mid-compaction, and a final plain kill of the first victim to
        # prove its quarantined journal replays again.
        assert "durability" in CHAOS_PROFILES
        for seed in (7, 11, 23):
            events = generate_timeline(seed, 3, 20.0, "durability")
            corrupts = [e for e in events if e.action == "corrupt"]
            assert len(corrupts) == 2
            assert all(e.mode in CORRUPT_MODES for e in corrupts)
            assert corrupts[-1].mode == "tail"
            kills = [e for e in events if e.action == "kill_compact"]
            assert len(kills) == 1
            assert events[-1].action == "kill"
            assert events[-1].shard == corrupts[0].shard
            assert [e.at for e in events] == sorted(e.at for e in events)
        # Two shards still generate a legal schedule (victims overlap).
        small = generate_timeline(7, 2, 20.0, "durability")
        assert all(0 <= e.shard < 2 for e in small)

    def test_describe_covers_every_event(self):
        events = generate_timeline(7, 3, 30.0)
        lines = describe_timeline(events)
        assert len(lines) == len(events)
        assert any("crashloop" in line for line in lines)
        assert any("mode=" in line for line in lines)

    def test_generator_validates_inputs(self):
        with pytest.raises(ValueError):
            generate_timeline(7, 1, 30.0)  # no survivors to reroute to
        with pytest.raises(ValueError):
            generate_timeline(7, 3, 0.0)
        with pytest.raises(ValueError):
            generate_timeline(7, 3, 30.0, "leisurely")


# ----------------------------------------------------------------------
# Deterministic Retry-After jitter
# ----------------------------------------------------------------------
class TestRetryJitter:
    def test_deterministic_per_client(self):
        a = jittered_retry_after(2.0, "client-a", seed=7)
        assert a == jittered_retry_after(2.0, "client-a", seed=7)

    def test_spread_breaks_up_the_herd(self):
        hints = {
            jittered_retry_after(2.0, f"client-{i}", seed=7)
            for i in range(16)
        }
        assert len(hints) == 16  # all distinct: no retry stampede

    def test_bounded_multiplicative_spread(self):
        for i in range(64):
            hint = jittered_retry_after(2.0, f"c{i}", seed=3)
            assert 2.0 <= hint <= 3.0

    def test_seed_changes_the_mapping(self):
        assert jittered_retry_after(2.0, "x", seed=1) != jittered_retry_after(
            2.0, "x", seed=2
        )

    def test_degenerate_inputs_pass_through(self):
        assert jittered_retry_after(0.0, "x") == 0.0
        assert jittered_retry_after(-1.0, "x") == -1.0
        assert jittered_retry_after(2.0, "x", spread=0.0) == 2.0


# ----------------------------------------------------------------------
# Rendezvous fallback routing
# ----------------------------------------------------------------------
class TestRendezvousFallback:
    def test_no_exclusion_matches_owner(self):
        for key in ("alpha", "beta", "gamma"):
            assert rendezvous_fallback(key, 5) == rendezvous_shard(key, 5)

    def test_excluding_the_owner_yields_second_choice(self):
        key = "some-request-key"
        ranking = rendezvous_ranking(key, 5)
        assert rendezvous_fallback(key, 5, {ranking[0]}) == ranking[1]
        assert (
            rendezvous_fallback(key, 5, set(ranking[:3])) == ranking[3]
        )

    def test_all_excluded_returns_none(self):
        assert rendezvous_fallback("key", 3, {0, 1, 2}) is None

    def test_survivors_keep_their_keys(self):
        # Excluding a shard never re-homes keys it did not own.
        for key in (f"key-{i}" for i in range(40)):
            owner = rendezvous_shard(key, 4)
            dead = (owner + 1) % 4
            assert rendezvous_fallback(key, 4, {dead}) == owner


# ----------------------------------------------------------------------
# RespawnPolicy validation
# ----------------------------------------------------------------------
class TestRespawnPolicy:
    def test_defaults_are_sane(self):
        policy = RespawnPolicy()
        assert policy.backoff_base > 0
        assert policy.max_rapid_deaths >= 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            # backoff of exactly 0 is legal (immediate respawns); only
            # negatives are nonsense.
            {"backoff_base": -0.1},
            {"backoff_max": -1.0},
            {"max_rapid_deaths": 0},
            {"death_window": 0.0},
            {"failed_retry_interval": 0.0},
        ],
    )
    def test_rejects_non_positive_knobs(self, kwargs):
        with pytest.raises(ValueError):
            RespawnPolicy(**kwargs)


# ----------------------------------------------------------------------
# Harness pieces
# ----------------------------------------------------------------------
class TestHarnessUnits:
    def test_oracle_is_deterministic(self):
        assert oracle_jsonl(CHAOS_GRID) == oracle_jsonl(CHAOS_GRID)
        assert len(oracle_jsonl(CHAOS_GRID).splitlines()) == len(CHAOS_GRID)

    def test_churn_payloads_have_fresh_keys(self):
        from repro.service import parse_request, request_key

        keys = {
            request_key(parse_request(churn_payload(i))) for i in range(200)
        }
        assert len(keys) == 200


# ----------------------------------------------------------------------
# One real quick soak (kill + disk fault + stall on a live fleet)
# ----------------------------------------------------------------------
class TestQuickSoak:
    def test_quick_profile_passes(self):
        report = run_chaos(
            ChaosConfig(
                seed=11,
                shards=2,
                duration=4.0,
                profile="quick",
                log=lambda message: None,
            )
        )
        assert report.invariant_failures == []
        assert report.oracle_mismatches == 0
        assert report.iterations > 0
        assert report.respawns >= 1  # the scheduled kill respawned
        assert report.journal_degraded is True  # disk fault survived
        assert report.readyz_samples == report.iterations


# ----------------------------------------------------------------------
# One real durability soak (journal corruption + mid-compaction kill)
# ----------------------------------------------------------------------
class TestDurabilitySoak:
    def test_corruption_and_compact_kill_survive(self):
        # A fixed timeline rather than the seeded profile so the test
        # pins down exactly one corruption mode and one compact kill.
        report = run_chaos(
            ChaosConfig(
                seed=11,
                shards=2,
                duration=5.0,
                events=parse_timeline(
                    "corrupt@1.2:shard=0:mode=mid;"
                    "kill_compact@3.0:shard=1"
                ),
                log=lambda message: None,
            )
        )
        assert report.invariant_failures == []
        assert report.oracle_mismatches == 0
        assert report.corruptions == 1
        assert report.corrupt_quarantined >= 1  # flipped byte detected
        assert report.compact_kills == 1
        assert report.compactions >= 1  # retried compaction completed
        assert report.journals_valid is True  # post-soak fsck clean
        assert report.respawns >= 2
