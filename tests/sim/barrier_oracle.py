"""Test-side oracle for :class:`repro.sim.shard.BarrierSchedule`.

The fixed lookahead grid the widening schedule replaced: every epoch ends
on a multiple of the lookahead ``L``, fast-forwarding over empty slots.
Patched onto ``BarrierSchedule.advance``, it makes a run take the classic
grid's (more numerous) barriers; windowing invariance says the results
must not change.
"""

from typing import Optional

from repro.sim.shard import BarrierSchedule


def fixed_grid_advance(
    schedule: BarrierSchedule,
    next_time: Optional[float],
    pending_arrival: Optional[float],
) -> bool:
    """``BarrierSchedule.advance`` on the fixed grid: same arguments,
    same return value, same counters (``epochs_widened`` stays 0)."""
    schedule.epochs += 1
    horizon = schedule.horizon
    if schedule._until >= horizon:
        return pending_arrival is not None and pending_arrival <= horizon
    wake = next_time
    if pending_arrival is not None and (wake is None or pending_arrival < wake):
        wake = pending_arrival
    lookahead = schedule.lookahead
    if wake is None:
        k_next = max(schedule._k + 1, int(horizon / lookahead))
    else:
        # The epoch whose (k+1)*L boundary first covers `wake`.
        k_next = max(schedule._k + 1, -int(-wake / lookahead) - 1)
    schedule.epochs_skipped += max(0, k_next - schedule._k - 1)
    schedule._k = k_next
    schedule._until = min((k_next + 1) * lookahead, horizon)
    return True
