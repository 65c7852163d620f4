//! The [`Stepping`] mode of the cycle-level simulators.
//!
//! The NoC fabric and the multi-tile machine step every simulated cycle on
//! the calling thread: one cycle of either is too little work to pay for a
//! barrier, so neither shards its work across threads.

/// How a simulator advances simulated time.
///
/// Within an executed cycle both modes visit the same work: the `wsp-noc`
/// fabric walks its occupancy bitmask and the `wsp-core` machine its
/// runnable tiles. `Wheel` is the default: whenever nothing can make
/// progress until a known future deadline (a pending response's ready
/// cycle, a stall expiry),
/// simulated `now` jumps straight there and the skipped window is
/// replayed in bulk — bit-identical to executing it (see DESIGN.md
/// "Simulator internals"). `Dense` executes every cycle (the machine
/// visits every tile) and is the reference the equivalence tests and the
/// CI byte-compare gate run against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Stepping {
    /// Execute every cycle — the reference sweep.
    Dense,
    /// Active-set walks plus event-wheel skips over idle/stalled windows.
    #[default]
    Wheel,
}

impl Stepping {
    /// Parses a CLI value (`"dense"` / `"wheel"`).
    pub fn parse(raw: &str) -> Option<Stepping> {
        match raw {
            "dense" => Some(Stepping::Dense),
            "wheel" => Some(Stepping::Wheel),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stepping_parses_and_defaults_to_wheel() {
        assert_eq!(Stepping::parse("dense"), Some(Stepping::Dense));
        assert_eq!(Stepping::parse("wheel"), Some(Stepping::Wheel));
        assert_eq!(Stepping::parse("sparse"), None, "the sparse mode is gone");
        assert_eq!(Stepping::parse("turbo"), None);
        assert_eq!(Stepping::default(), Stepping::Wheel);
    }
}
