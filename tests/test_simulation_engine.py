"""Tests for the discrete-event engine."""

import pytest

from repro.simulation.engine import EventQueue, SimulationEngine


class TestEventQueue:
    def test_pop_in_time_order(self):
        q = EventQueue()
        order = []
        q.push(3.0, lambda: order.append("c"))
        q.push(1.0, lambda: order.append("a"))
        q.push(2.0, lambda: order.append("b"))
        while (event := q.pop()) is not None:
            event.action()
        assert order == ["a", "b", "c"]

    def test_fifo_for_simultaneous(self):
        q = EventQueue()
        order = []
        q.push(1.0, lambda: order.append("first"))
        q.push(1.0, lambda: order.append("second"))
        q.pop().action()
        q.pop().action()
        assert order == ["first", "second"]

    def test_peek_time(self):
        q = EventQueue()
        q.push(5.0, lambda: None)
        assert q.peek_time() == 5.0

    def test_bool_empty(self):
        assert not EventQueue()


class TestSimulationEngine:
    def test_clock_advances_to_event_time(self):
        engine = SimulationEngine()
        engine.schedule(10.0, lambda: None)
        engine.run()
        assert engine.clock.seconds == 10.0

    def test_schedule_negative_rejected(self):
        with pytest.raises(ValueError):
            SimulationEngine().schedule(-1.0, lambda: None)

    def test_schedule_at_past_rejected(self):
        engine = SimulationEngine()
        engine.clock.advance_to(10.0)
        with pytest.raises(ValueError):
            engine.schedule_at(5.0, lambda: None)

    def test_run_until(self):
        engine = SimulationEngine()
        fired = []
        engine.schedule(1.0, lambda: fired.append(1))
        engine.schedule(100.0, lambda: fired.append(2))
        engine.run(until=50.0)
        assert fired == [1]
        assert engine.clock.seconds == 50.0

    def test_run_max_events(self):
        engine = SimulationEngine()
        for i in range(10):
            engine.schedule(float(i + 1), lambda: None)
        processed = engine.run(max_events=3)
        assert processed == 3

    def test_events_can_schedule_events(self):
        engine = SimulationEngine()
        results = []

        def chain(n):
            results.append(n)
            if n < 3:
                engine.schedule(1.0, lambda: chain(n + 1))

        engine.schedule(1.0, lambda: chain(1))
        engine.run()
        assert results == [1, 2, 3]
        assert engine.clock.seconds == 3.0

    def test_events_processed_counter(self):
        engine = SimulationEngine()
        engine.schedule(1.0, lambda: None)
        engine.schedule(2.0, lambda: None)
        engine.run()
        assert engine.events_processed == 2

    def test_step_returns_false_when_empty(self):
        assert SimulationEngine().step() is False
