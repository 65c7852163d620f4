//! The per-core interpreter: one Cortex-M3-class core with 64 KB of
//! private SRAM.
//!
//! Each core retires one instruction per cycle; loads and stores to the
//! private SRAM complete in that cycle, while accesses at or above
//! [`crate::GLOBAL_BASE`] are presented to the tile's crossbar and may
//! stall for arbitration — the core re-issues the access every cycle until
//! granted, exactly like a blocked AHB master.

use std::error::Error;
use std::fmt;

use crate::isa::{Instr, Program, Reg};
use crate::memory::{AccessMemoryError, PagedWords};
use crate::{GLOBAL_BASE, PRIVATE_SRAM_BYTES};

/// A shared-memory access presented to the tile interconnect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BusAccess {
    /// Word load from a shared address.
    Load {
        /// Byte address (≥ [`GLOBAL_BASE`]).
        addr: u32,
    },
    /// Word store to a shared address.
    Store {
        /// Byte address (≥ [`GLOBAL_BASE`]).
        addr: u32,
        /// The word to write.
        value: u32,
    },
    /// Atomic fetch-and-add on a shared address; the grant carries the
    /// *old* value.
    AmoAdd {
        /// Byte address (≥ [`GLOBAL_BASE`]).
        addr: u32,
        /// The addend.
        value: u32,
    },
}

/// Outcome of presenting a [`BusAccess`] this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BusGrant {
    /// Access performed; for loads, carries the value read.
    Granted(u32),
    /// Arbitration lost this cycle — the core stalls and retries.
    Stalled,
}

/// Progress of one core's outstanding shared-memory access, tracked by
/// whatever agent services the bus on the core's behalf (the tile for
/// local banks, the machine's network interface for remote tiles). The
/// core itself just re-issues the access and sees [`BusGrant::Stalled`]
/// until the slot reaches [`PendingAccess::Ready`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PendingAccess {
    /// The request is in the network; the core stalls until the response
    /// packet is actually delivered.
    InFlight {
        /// Byte address of the stalled access.
        addr: u32,
        /// Cycle the access first issued, for end-to-end latency
        /// accounting.
        issued_at: u64,
    },
    /// Analytic-model timer: the access completes once the machine clock
    /// reaches `ready_at`, independent of network load.
    WaitUntil {
        /// Byte address of the stalled access.
        addr: u32,
        /// Cycle the access first issued.
        issued_at: u64,
        /// Cycle the modelled round trip completes.
        ready_at: u64,
    },
    /// The response has arrived carrying the access result; the core is
    /// granted on its next bus attempt.
    Ready {
        /// Byte address of the completed access.
        addr: u32,
        /// Cycle the access first issued.
        issued_at: u64,
        /// The grant payload (load/AMO result; 0 for stores).
        value: u32,
    },
}

impl PendingAccess {
    /// The byte address the access targets.
    pub fn addr(&self) -> u32 {
        match *self {
            PendingAccess::InFlight { addr, .. }
            | PendingAccess::WaitUntil { addr, .. }
            | PendingAccess::Ready { addr, .. } => addr,
        }
    }

    /// The cycle the access first issued.
    pub fn issued_at(&self) -> u64 {
        match *self {
            PendingAccess::InFlight { issued_at, .. }
            | PendingAccess::WaitUntil { issued_at, .. }
            | PendingAccess::Ready { issued_at, .. } => issued_at,
        }
    }
}

/// Execution state of a core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreState {
    /// Executing instructions.
    Running,
    /// Reached a `Halt`.
    Halted,
    /// Trapped on an error; see the `StepError` that reported it.
    Faulted,
}

/// Execution statistics of one core.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CoreStats {
    /// Cycles elapsed (including stall cycles).
    pub cycles: u64,
    /// Instructions retired.
    pub retired: u64,
    /// Cycles lost waiting for shared-memory arbitration.
    pub stall_cycles: u64,
    /// Shared-memory accesses completed.
    pub shared_accesses: u64,
}

/// One core of the compute chiplet.
///
/// # Examples
///
/// ```
/// use wsp_tile::isa::{Program, Reg};
/// use wsp_tile::{BusGrant, CoreSim, CoreState};
///
/// let program = Program::builder()
///     .ldi(Reg::R1, 20)
///     .ldi(Reg::R2, 22)
///     .add(Reg::R3, Reg::R1, Reg::R2)
///     .halt()
///     .build()?;
/// let mut core = CoreSim::new();
/// core.load_program(&program);
/// while core.state() == CoreState::Running {
///     core.step(|_| Ok(BusGrant::Stalled))?; // no shared accesses issued
/// }
/// assert_eq!(core.reg(Reg::R3), 42);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct CoreSim {
    regs: [u32; 16],
    pc: usize,
    program: Program,
    sram: PagedWords,
    state: CoreState,
    stats: CoreStats,
    /// Remaining cycles the pipeline is frozen by an already-performed
    /// shared access (the execute-then-stall idiom). The cycles were
    /// accounted up front by [`CoreSim::apply_stall_cycles`]; `step`
    /// only drains the freeze.
    stall_pending: u64,
}

impl CoreSim {
    /// Creates a core with zeroed registers and SRAM and an empty (halted)
    /// program.
    pub fn new() -> Self {
        CoreSim {
            regs: [0; 16],
            pc: 0,
            program: Program::builder().halt().build().expect("non-empty"),
            sram: PagedWords::new(PRIVATE_SRAM_BYTES),
            state: CoreState::Halted,
            stats: CoreStats::default(),
            stall_pending: 0,
        }
    }

    /// Loads a program and resets pc/state (registers and SRAM persist, as
    /// they would across a JTAG reload).
    pub fn load_program(&mut self, program: &Program) {
        self.program = program.clone();
        self.pc = 0;
        self.state = CoreState::Running;
    }

    /// Current execution state.
    #[inline]
    pub fn state(&self) -> CoreState {
        self.state
    }

    /// Current program counter (instruction index, not a byte address).
    /// Exposed for architectural-state digests and debuggers.
    #[inline]
    pub fn pc(&self) -> usize {
        self.pc
    }

    /// Value of a register.
    #[inline]
    pub fn reg(&self, r: Reg) -> u32 {
        self.regs[r.index()]
    }

    /// Sets a register (used by loaders/tests to pass arguments).
    #[inline]
    pub fn set_reg(&mut self, r: Reg, value: u32) {
        self.regs[r.index()] = value;
    }

    /// Execution statistics so far.
    #[inline]
    pub fn stats(&self) -> CoreStats {
        self.stats
    }

    /// Credits `cycles` cycles in which this core was stepped but stalled
    /// on an outstanding shared-memory access, without re-executing the
    /// instruction. An activity-driven scheduler that skips a fully
    /// blocked tile replays the skipped span through this method: a
    /// blocked core's [`CoreSim::step`] does exactly one `cycles` and one
    /// `stall_cycles` increment per cycle and nothing else, so the replay
    /// is bit-identical to having stepped it.
    #[inline]
    pub fn absorb_stall_cycles(&mut self, cycles: u64) {
        debug_assert_eq!(self.state, CoreState::Running, "only running cores stall");
        self.stats.cycles += cycles;
        self.stats.stall_cycles += cycles;
    }

    /// Applies the stall a memory model returned for an access that
    /// already performed this cycle (the execute-then-stall idiom): the
    /// model mutated exactly once, so the whole cost is absorbed up
    /// front through [`CoreSim::absorb_stall_cycles`] and the pipeline
    /// stays frozen for the same number of subsequent [`CoreSim::step`]
    /// calls — without the access ever being re-presented.
    pub fn apply_stall_cycles(&mut self, cycles: u64) {
        if cycles == 0 || self.state != CoreState::Running {
            return;
        }
        self.absorb_stall_cycles(cycles);
        self.stall_pending += cycles;
    }

    /// Remaining frozen cycles from [`CoreSim::apply_stall_cycles`].
    #[inline]
    pub fn stall_pending(&self) -> u64 {
        self.stall_pending
    }

    /// Drains `cycles` of an armed freeze in bulk — the event-wheel skip
    /// path. A frozen [`CoreSim::step`] does exactly one `stall_pending`
    /// decrement and nothing else (cycles and stalls were accounted up
    /// front by [`CoreSim::apply_stall_cycles`]), so skipping a window of
    /// `cycles` frozen steps reduces to this single subtraction.
    #[inline]
    pub fn drain_stall_cycles(&mut self, cycles: u64) {
        debug_assert_eq!(self.state, CoreState::Running, "only running cores drain");
        debug_assert!(self.stall_pending >= cycles, "cannot drain past the freeze");
        self.stall_pending -= cycles;
    }

    /// Reads a word from private SRAM (for test setup / result readout).
    ///
    /// # Errors
    ///
    /// Returns an error for misaligned or out-of-range addresses.
    pub fn read_private_word(&self, addr: u32) -> Result<u32, AccessMemoryError> {
        check_private(addr)?;
        Ok(self.sram.read(addr as usize / 4))
    }

    /// Writes a word to private SRAM.
    ///
    /// # Errors
    ///
    /// Returns an error for misaligned or out-of-range addresses.
    pub fn write_private_word(&mut self, addr: u32, value: u32) -> Result<(), AccessMemoryError> {
        check_private(addr)?;
        self.sram.write(addr as usize / 4, value);
        Ok(())
    }

    /// Bytes of private SRAM backed by allocated pages: a multiple of
    /// [`crate::memory::PAGE_BYTES`], 0 for a core that never stored to
    /// it.
    pub fn resident_bytes(&self) -> usize {
        self.sram.resident_bytes()
    }

    /// Advances the core one cycle.
    ///
    /// `shared` is invoked when (and only when) the current instruction
    /// accesses an address at or above [`GLOBAL_BASE`]; returning
    /// [`BusGrant::Stalled`] keeps the core on the same instruction.
    ///
    /// # Errors
    ///
    /// Returns [`StepError`] on architectural faults (bad PC, misaligned
    /// or out-of-range addresses); the core transitions to
    /// [`CoreState::Faulted`] and further steps are no-ops.
    pub fn step<F>(&mut self, shared: F) -> Result<CoreState, StepError>
    where
        F: FnOnce(BusAccess) -> Result<BusGrant, AccessMemoryError>,
    {
        if self.state != CoreState::Running {
            return Ok(self.state);
        }
        if self.stall_pending > 0 {
            // Cycle and stall already accounted by `apply_stall_cycles`;
            // just drain the freeze without touching the instruction.
            self.stall_pending -= 1;
            return Ok(CoreState::Running);
        }
        self.stats.cycles += 1;

        let Some(&instr) = self.program.instrs().get(self.pc) else {
            self.state = CoreState::Faulted;
            return Err(StepError::PcOutOfRange { pc: self.pc });
        };

        let mut next_pc = self.pc + 1;
        match instr {
            Instr::Ldi(rd, imm) => self.regs[rd.index()] = imm,
            Instr::Mov(rd, rs) => self.regs[rd.index()] = self.reg(rs),
            Instr::Add(rd, rs, rt) => {
                self.regs[rd.index()] = self.reg(rs).wrapping_add(self.reg(rt))
            }
            Instr::Addi(rd, rs, imm) => {
                self.regs[rd.index()] = self.reg(rs).wrapping_add_signed(imm)
            }
            Instr::Sub(rd, rs, rt) => {
                self.regs[rd.index()] = self.reg(rs).wrapping_sub(self.reg(rt))
            }
            Instr::Mul(rd, rs, rt) => {
                self.regs[rd.index()] = self.reg(rs).wrapping_mul(self.reg(rt))
            }
            Instr::And(rd, rs, rt) => self.regs[rd.index()] = self.reg(rs) & self.reg(rt),
            Instr::Or(rd, rs, rt) => self.regs[rd.index()] = self.reg(rs) | self.reg(rt),
            Instr::Xor(rd, rs, rt) => self.regs[rd.index()] = self.reg(rs) ^ self.reg(rt),
            Instr::Shl(rd, rs, imm) => {
                self.regs[rd.index()] = self.reg(rs).wrapping_shl(u32::from(imm))
            }
            Instr::Shr(rd, rs, imm) => {
                self.regs[rd.index()] = self.reg(rs).wrapping_shr(u32::from(imm))
            }
            Instr::Ld(rd, rs, offset) => {
                let addr = self.reg(rs).wrapping_add_signed(offset);
                if addr >= GLOBAL_BASE {
                    match shared(BusAccess::Load { addr }).map_err(|e| self.fault(e))? {
                        BusGrant::Granted(v) => {
                            self.regs[rd.index()] = v;
                            self.stats.shared_accesses += 1;
                        }
                        BusGrant::Stalled => {
                            self.stats.stall_cycles += 1;
                            return Ok(CoreState::Running); // retry same pc
                        }
                    }
                } else {
                    let v = self.read_private_word(addr).map_err(|e| self.fault(e))?;
                    self.regs[rd.index()] = v;
                }
            }
            Instr::St(rval, raddr, offset) => {
                let addr = self.reg(raddr).wrapping_add_signed(offset);
                let value = self.reg(rval);
                if addr >= GLOBAL_BASE {
                    match shared(BusAccess::Store { addr, value }).map_err(|e| self.fault(e))? {
                        BusGrant::Granted(_) => self.stats.shared_accesses += 1,
                        BusGrant::Stalled => {
                            self.stats.stall_cycles += 1;
                            return Ok(CoreState::Running);
                        }
                    }
                } else {
                    self.write_private_word(addr, value)
                        .map_err(|e| self.fault(e))?;
                }
            }
            Instr::AmoAdd(rd, raddr, rval) => {
                let addr = self.reg(raddr);
                if addr < GLOBAL_BASE {
                    return Err(self.fault(AccessMemoryError::OutOfRange { addr }));
                }
                let value = self.reg(rval);
                match shared(BusAccess::AmoAdd { addr, value }).map_err(|e| self.fault(e))? {
                    BusGrant::Granted(old) => {
                        self.regs[rd.index()] = old;
                        self.stats.shared_accesses += 1;
                    }
                    BusGrant::Stalled => {
                        self.stats.stall_cycles += 1;
                        return Ok(CoreState::Running);
                    }
                }
            }
            Instr::Beq(rs, rt, target) => {
                if self.reg(rs) == self.reg(rt) {
                    next_pc = target;
                }
            }
            Instr::Bne(rs, rt, target) => {
                if self.reg(rs) != self.reg(rt) {
                    next_pc = target;
                }
            }
            Instr::Blt(rs, rt, target) => {
                if self.reg(rs) < self.reg(rt) {
                    next_pc = target;
                }
            }
            Instr::Jmp(target) => next_pc = target,
            Instr::Halt => {
                self.state = CoreState::Halted;
                self.stats.retired += 1;
                return Ok(CoreState::Halted);
            }
        }
        self.stats.retired += 1;
        self.pc = next_pc;
        Ok(CoreState::Running)
    }

    fn fault(&mut self, err: AccessMemoryError) -> StepError {
        self.state = CoreState::Faulted;
        StepError::Memory(err)
    }
}

impl Default for CoreSim {
    fn default() -> Self {
        CoreSim::new()
    }
}

fn check_private(addr: u32) -> Result<(), AccessMemoryError> {
    if !addr.is_multiple_of(4) {
        return Err(AccessMemoryError::Misaligned { addr });
    }
    if addr as usize + 4 > PRIVATE_SRAM_BYTES {
        return Err(AccessMemoryError::OutOfRange { addr });
    }
    Ok(())
}

/// Failure modes of [`CoreSim::step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepError {
    /// The program counter ran off the end of the program.
    PcOutOfRange {
        /// The offending pc.
        pc: usize,
    },
    /// A memory access faulted.
    Memory(AccessMemoryError),
}

impl fmt::Display for StepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StepError::PcOutOfRange { pc } => write!(f, "program counter {pc} out of range"),
            StepError::Memory(e) => write!(f, "memory fault: {e}"),
        }
    }
}

impl Error for StepError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            StepError::Memory(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::Program;

    fn run(core: &mut CoreSim, max: u64) {
        let mut cycles = 0;
        while core.state() == CoreState::Running {
            core.step(|_| Ok(BusGrant::Stalled)).expect("no fault");
            cycles += 1;
            assert!(cycles < max, "program did not halt");
        }
    }

    #[test]
    fn arithmetic_and_logic() {
        let program = Program::builder()
            .ldi(Reg::R1, 0xF0)
            .ldi(Reg::R2, 0x0F)
            .or(Reg::R3, Reg::R1, Reg::R2)
            .and(Reg::R4, Reg::R1, Reg::R2)
            .xor(Reg::R5, Reg::R1, Reg::R2)
            .shl(Reg::R6, Reg::R2, 4)
            .shr(Reg::R7, Reg::R1, 4)
            .sub(Reg::R8, Reg::R1, Reg::R2)
            .mul(Reg::R9, Reg::R2, Reg::R2)
            .halt()
            .build()
            .expect("ok");
        let mut core = CoreSim::new();
        core.load_program(&program);
        run(&mut core, 100);
        assert_eq!(core.reg(Reg::R3), 0xFF);
        assert_eq!(core.reg(Reg::R4), 0x00);
        assert_eq!(core.reg(Reg::R5), 0xFF);
        assert_eq!(core.reg(Reg::R6), 0xF0);
        assert_eq!(core.reg(Reg::R7), 0x0F);
        assert_eq!(core.reg(Reg::R8), 0xE1);
        assert_eq!(core.reg(Reg::R9), 225);
    }

    #[test]
    fn countdown_loop_sums() {
        // Sum 1..=10 = 55.
        let program = Program::builder()
            .ldi(Reg::R1, 0)
            .ldi(Reg::R2, 10)
            .label("loop")
            .add(Reg::R1, Reg::R1, Reg::R2)
            .addi(Reg::R2, Reg::R2, -1)
            .bne(Reg::R2, Reg::R0, "loop")
            .halt()
            .build()
            .expect("ok");
        let mut core = CoreSim::new();
        core.load_program(&program);
        run(&mut core, 100);
        assert_eq!(core.reg(Reg::R1), 55);
        assert_eq!(core.stats().retired, 2 + 3 * 10 + 1);
    }

    #[test]
    fn private_memory_round_trip() {
        // Store a value, load it back through a different register.
        let program = Program::builder()
            .ldi(Reg::R1, 0xDEADBEEF)
            .ldi(Reg::R2, 128)
            .st(Reg::R1, Reg::R2, 4)
            .ld(Reg::R3, Reg::R2, 4)
            .halt()
            .build()
            .expect("ok");
        let mut core = CoreSim::new();
        core.load_program(&program);
        run(&mut core, 100);
        assert_eq!(core.reg(Reg::R3), 0xDEADBEEF);
        assert_eq!(core.read_private_word(132).expect("ok"), 0xDEADBEEF);
    }

    #[test]
    fn fibonacci_in_memory() {
        // Compute fib(0..12) into a private array and check fib(12)=144.
        let program = Program::builder()
            .ldi(Reg::R1, 0) // base pointer
            .ldi(Reg::R2, 0) // fib(0)
            .ldi(Reg::R3, 1) // fib(1)
            .st(Reg::R2, Reg::R1, 0)
            .st(Reg::R3, Reg::R1, 4)
            .ldi(Reg::R4, 2) // i
            .ldi(Reg::R5, 13) // limit
            .label("loop")
            .add(Reg::R6, Reg::R2, Reg::R3)
            .shl(Reg::R7, Reg::R4, 2)
            .add(Reg::R7, Reg::R7, Reg::R1)
            .st(Reg::R6, Reg::R7, 0)
            .mov(Reg::R2, Reg::R3)
            .mov(Reg::R3, Reg::R6)
            .addi(Reg::R4, Reg::R4, 1)
            .blt(Reg::R4, Reg::R5, "loop")
            .halt()
            .build()
            .expect("ok");
        let mut core = CoreSim::new();
        core.load_program(&program);
        run(&mut core, 1000);
        assert_eq!(core.read_private_word(12 * 4).expect("ok"), 144);
    }

    #[test]
    fn euclid_gcd_program() {
        // gcd(252, 105) = 21 by repeated subtraction.
        let program = Program::builder()
            .ldi(Reg::R1, 252)
            .ldi(Reg::R2, 105)
            .label("loop")
            .beq(Reg::R1, Reg::R2, "done")
            .blt(Reg::R1, Reg::R2, "swap_sub")
            .sub(Reg::R1, Reg::R1, Reg::R2)
            .jmp("loop")
            .label("swap_sub")
            .sub(Reg::R2, Reg::R2, Reg::R1)
            .jmp("loop")
            .label("done")
            .halt()
            .build()
            .expect("ok");
        let mut core = CoreSim::new();
        core.load_program(&program);
        run(&mut core, 10_000);
        assert_eq!(core.reg(Reg::R1), 21);
        assert_eq!(core.reg(Reg::R2), 21);
    }

    #[test]
    fn memcpy_program() {
        // Copy 16 words from address 0 to address 256.
        let program = Program::builder()
            .ldi(Reg::R1, 0) // src
            .ldi(Reg::R2, 256) // dst
            .ldi(Reg::R3, 16) // count
            .ldi(Reg::R0, 0)
            .label("loop")
            .ld(Reg::R4, Reg::R1, 0)
            .st(Reg::R4, Reg::R2, 0)
            .addi(Reg::R1, Reg::R1, 4)
            .addi(Reg::R2, Reg::R2, 4)
            .addi(Reg::R3, Reg::R3, -1)
            .bne(Reg::R3, Reg::R0, "loop")
            .halt()
            .build()
            .expect("ok");
        let mut core = CoreSim::new();
        for i in 0..16u32 {
            core.write_private_word(i * 4, i * 17 + 3).expect("ok");
        }
        core.load_program(&program);
        run(&mut core, 10_000);
        for i in 0..16u32 {
            assert_eq!(core.read_private_word(256 + i * 4).expect("ok"), i * 17 + 3);
        }
    }

    #[test]
    fn insertion_sort_program() {
        // Sort 8 words in place at address 0 (insertion sort).
        let n = 8u32;
        let program = Program::builder()
            .ldi(Reg::R1, 1) // i
            .ldi(Reg::R9, n) // n
            .label("outer")
            .blt(Reg::R1, Reg::R9, "body")
            .halt()
            .label("body")
            .shl(Reg::R2, Reg::R1, 2)
            .ld(Reg::R3, Reg::R2, 0) // key = a[i]
            .mov(Reg::R4, Reg::R1) // j = i
            .label("inner")
            .beq(Reg::R4, Reg::R0, "insert")
            .addi(Reg::R5, Reg::R4, -1)
            .shl(Reg::R6, Reg::R5, 2)
            .ld(Reg::R7, Reg::R6, 0) // a[j-1]
            // if a[j-1] < key (i.e. not >) stop shifting
            .blt(Reg::R7, Reg::R3, "insert")
            .beq(Reg::R7, Reg::R3, "insert")
            .shl(Reg::R8, Reg::R4, 2)
            .st(Reg::R7, Reg::R8, 0) // a[j] = a[j-1]
            .mov(Reg::R4, Reg::R5)
            .jmp("inner")
            .label("insert")
            .shl(Reg::R8, Reg::R4, 2)
            .st(Reg::R3, Reg::R8, 0) // a[j] = key
            .addi(Reg::R1, Reg::R1, 1)
            .jmp("outer")
            .build()
            .expect("ok");
        let mut core = CoreSim::new();
        let data = [42u32, 7, 99, 1, 56, 23, 88, 3];
        for (i, &v) in data.iter().enumerate() {
            core.write_private_word(i as u32 * 4, v).expect("ok");
        }
        core.load_program(&program);
        run(&mut core, 100_000);
        let mut sorted = data;
        sorted.sort_unstable();
        for (i, &v) in sorted.iter().enumerate() {
            assert_eq!(
                core.read_private_word(i as u32 * 4).expect("ok"),
                v,
                "index {i}"
            );
        }
    }

    #[test]
    fn shared_access_goes_through_the_bus() {
        let program = Program::builder()
            .ldi(Reg::R1, GLOBAL_BASE)
            .ld(Reg::R2, Reg::R1, 8)
            .halt()
            .build()
            .expect("ok");
        let mut core = CoreSim::new();
        core.load_program(&program);
        core.step(|_| Ok(BusGrant::Stalled)).expect("ldi");
        // First attempt stalls...
        core.step(|a| {
            assert_eq!(
                a,
                BusAccess::Load {
                    addr: GLOBAL_BASE + 8
                }
            );
            Ok(BusGrant::Stalled)
        })
        .expect("stall");
        assert_eq!(core.stats().stall_cycles, 1);
        // ...second is granted.
        core.step(|_| Ok(BusGrant::Granted(777))).expect("grant");
        run(&mut core, 10);
        assert_eq!(core.reg(Reg::R2), 777);
        assert_eq!(core.stats().shared_accesses, 1);
    }

    #[test]
    fn misaligned_access_faults() {
        let program = Program::builder()
            .ldi(Reg::R1, 2)
            .ld(Reg::R2, Reg::R1, 0)
            .halt()
            .build()
            .expect("ok");
        let mut core = CoreSim::new();
        core.load_program(&program);
        core.step(|_| Ok(BusGrant::Stalled)).expect("ldi");
        let err = core.step(|_| Ok(BusGrant::Stalled)).expect_err("fault");
        assert!(matches!(
            err,
            StepError::Memory(AccessMemoryError::Misaligned { addr: 2 })
        ));
        assert_eq!(core.state(), CoreState::Faulted);
        // Further steps are inert.
        assert_eq!(
            core.step(|_| Ok(BusGrant::Stalled)).expect("inert"),
            CoreState::Faulted
        );
    }

    #[test]
    fn out_of_range_private_access_faults() {
        let mut core = CoreSim::new();
        assert!(matches!(
            core.write_private_word(PRIVATE_SRAM_BYTES as u32, 1),
            Err(AccessMemoryError::OutOfRange { .. })
        ));
        assert!(core
            .read_private_word(PRIVATE_SRAM_BYTES as u32 - 4)
            .is_ok());
    }

    #[test]
    fn new_core_is_halted_until_programmed() {
        let mut core = CoreSim::new();
        assert_eq!(core.state(), CoreState::Halted);
        assert_eq!(
            core.step(|_| Ok(BusGrant::Stalled)).expect("no-op"),
            CoreState::Halted
        );
        assert_eq!(core.stats().cycles, 0);
    }

    #[test]
    fn error_display() {
        let e = StepError::PcOutOfRange { pc: 42 };
        assert!(e.to_string().contains("42"));
    }

    #[test]
    fn apply_stall_cycles_accounts_up_front_and_freezes_the_pipeline() {
        let program = Program::builder()
            .ldi(Reg::R1, 1)
            .ldi(Reg::R2, 2)
            .halt()
            .build()
            .expect("builds");
        let mut core = CoreSim::new();
        core.load_program(&program);
        core.step(|_| Ok(BusGrant::Stalled)).expect("steps");
        assert_eq!(core.stats().retired, 1);
        // An already-performed access reports 3 extra cycles: they are
        // all accounted immediately…
        core.apply_stall_cycles(3);
        let frozen = core.stats();
        assert_eq!(frozen.cycles, 1 + 3);
        assert_eq!(frozen.stall_cycles, 3);
        assert_eq!(core.stall_pending(), 3);
        // …and the next 3 steps drain the freeze without executing or
        // double-counting anything.
        for expected_left in [2u64, 1, 0] {
            assert_eq!(
                core.step(|_| Ok(BusGrant::Stalled)).expect("steps"),
                CoreState::Running
            );
            assert_eq!(core.stall_pending(), expected_left);
            assert_eq!(core.stats(), frozen, "frozen steps must not account");
            assert_eq!(core.stats().retired, 1);
        }
        // The pipeline thaws: the second ldi executes on the next step.
        core.step(|_| Ok(BusGrant::Stalled)).expect("steps");
        assert_eq!(core.reg(Reg::R2), 2);
        assert_eq!(core.stats().retired, 2);
        assert_eq!(core.stats().cycles, 5);
    }

    #[test]
    fn drain_stall_cycles_matches_frozen_steps() {
        let program = Program::builder()
            .ldi(Reg::R1, 1)
            .ldi(Reg::R2, 2)
            .halt()
            .build()
            .expect("builds");
        let build = || {
            let mut core = CoreSim::new();
            core.load_program(&program);
            core.step(|_| Ok(BusGrant::Stalled)).expect("steps");
            core.apply_stall_cycles(5);
            core
        };
        let mut stepped = build();
        let mut drained = build();
        for _ in 0..4 {
            stepped.step(|_| Ok(BusGrant::Stalled)).expect("steps");
        }
        drained.drain_stall_cycles(4);
        assert_eq!(stepped.stall_pending(), drained.stall_pending());
        assert_eq!(stepped.stats(), drained.stats());
        // Both thaw on the same subsequent cycle and execute identically.
        stepped.step(|_| Ok(BusGrant::Stalled)).expect("steps");
        drained.step(|_| Ok(BusGrant::Stalled)).expect("steps");
        stepped.step(|_| Ok(BusGrant::Stalled)).expect("steps");
        drained.step(|_| Ok(BusGrant::Stalled)).expect("steps");
        assert_eq!(stepped.reg(Reg::R2), 2);
        assert_eq!(drained.reg(Reg::R2), 2);
        assert_eq!(stepped.stats(), drained.stats());
    }

    #[test]
    fn apply_stall_cycles_of_zero_is_free() {
        let mut core = CoreSim::new();
        core.load_program(&Program::builder().halt().build().expect("builds"));
        core.apply_stall_cycles(0);
        assert_eq!(core.stats(), CoreStats::default());
        assert_eq!(core.stall_pending(), 0);
    }
}
