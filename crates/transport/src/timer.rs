//! Driver-side bookkeeping for a connection endpoint's timer events.
//!
//! A [`crate::Conn`] restarts its retransmission timer on every ack, so
//! [`crate::ConnOutput::timer`] names a new fire time thousands of times
//! per real timeout. A driver that schedules one event per restart pops
//! almost nothing but dead events. A [`TimerSlot`] keeps a single event
//! pending per endpoint instead: the event re-schedules itself when it
//! pops early, and only a restart to an *earlier* time costs a new event.
//! [`crate::Conn::on_timer`] is still called at exactly the armed instant.

use meshlayer_simcore::SimTime;

/// What the driver does with a popped timer event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimerPop {
    /// Nothing: the event was superseded, or the timer is disarmed.
    Idle,
    /// The timer moved later: schedule the event again at this time.
    Push(SimTime),
    /// The timer is due: call [`crate::Conn::on_timer`] with this
    /// generation now, then [`TimerSlot::arm`] with its output.
    Fire(u64),
}

/// The one live timer event of a connection endpoint.
#[derive(Debug, Default, Clone, Copy)]
pub struct TimerSlot {
    /// Fire time of the live event, if one is scheduled.
    pending: Option<SimTime>,
}

impl TimerSlot {
    /// The endpoint wants `timer` (a [`crate::ConnOutput::timer`]). Returns
    /// the time at which the driver must schedule a new timer event, if
    /// the live one (if any) would pop too late. The new event supersedes
    /// it; the old one pops as [`TimerPop::Idle`].
    pub fn arm(&mut self, timer: Option<(SimTime, u64)>) -> Option<SimTime> {
        let (at, _) = timer?;
        if self.pending.is_some_and(|p| p <= at) {
            return None;
        }
        self.pending = Some(at);
        Some(at)
    }

    /// A timer event scheduled for `now` popped; `state` is the endpoint's
    /// [`crate::Conn::timer_state`].
    pub fn on_pop(&mut self, now: SimTime, state: Option<(SimTime, u64)>) -> TimerPop {
        if self.pending != Some(now) {
            return TimerPop::Idle;
        }
        self.pending = None;
        match state {
            None => TimerPop::Idle,
            Some((at, _)) if at > now => {
                self.pending = Some(at);
                TimerPop::Push(at)
            }
            Some((_, gen)) => TimerPop::Fire(gen),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn later_restarts_cost_no_event_and_the_live_one_follows() {
        let mut slot = TimerSlot::default();
        assert_eq!(slot.arm(Some((t(100), 1))), Some(t(100)));
        assert_eq!(slot.arm(Some((t(150), 2))), None);
        assert_eq!(slot.arm(Some((t(180), 3))), None);
        assert_eq!(
            slot.on_pop(t(100), Some((t(180), 3))),
            TimerPop::Push(t(180))
        );
        assert_eq!(slot.on_pop(t(180), Some((t(180), 3))), TimerPop::Fire(3));
    }

    #[test]
    fn earlier_restart_supersedes_the_live_event() {
        let mut slot = TimerSlot::default();
        assert_eq!(slot.arm(Some((t(200), 1))), Some(t(200)));
        assert_eq!(slot.arm(Some((t(120), 2))), Some(t(120)));
        assert_eq!(slot.on_pop(t(120), Some((t(120), 2))), TimerPop::Fire(2));
        // The endpoint re-armed at 400 after firing; the old event is dead.
        assert_eq!(slot.arm(Some((t(400), 3))), Some(t(400)));
        assert_eq!(slot.on_pop(t(200), Some((t(400), 3))), TimerPop::Idle);
        assert_eq!(slot.on_pop(t(400), Some((t(400), 3))), TimerPop::Fire(3));
    }

    #[test]
    fn disarmed_timer_lets_the_event_die() {
        let mut slot = TimerSlot::default();
        assert_eq!(slot.arm(None), None);
        assert_eq!(slot.arm(Some((t(50), 1))), Some(t(50)));
        assert_eq!(slot.on_pop(t(50), None), TimerPop::Idle);
        // Nothing pending any more: the next arm schedules afresh.
        assert_eq!(slot.arm(Some((t(90), 2))), Some(t(90)));
    }
}
