//! The timer clocks (§2.2.2: one clock and one timer queue per
//! priority) on every memory map the emulator models.
//!
//! A tick advances its priority's clock. The tick on which the queue
//! head's time is reached wakes it, reading the head and its wake time,
//! so where those sit off chip that tick shows in the cycle count; no
//! earlier tick reads memory. `tick_rule_is_pinned` holds literal
//! cycles, clocks and statistics for directed scenarios on three maps;
//! no scenario idles with a timer armed, so the host's idle
//! fast-forward plays no part. The idle-wait tests cover that
//! fast-forward: the ticks it passes read nothing, neither a host-side
//! query or memory access nor setting a processor up may move the
//! simulated machine, and a poked wake time takes effect at the latched
//! due tick. Five more hold the latch's edges: `sttimer` under a
//! waiting head, a queue left empty past half the T222 clock's range,
//! both queues due on one tick, a wait of half the clock's range, and
//! one advance across two due ticks.

use transputer::instr::{encode, encode_op, Direct, Op};
use transputer::memory::{MemoryConfig, TPTR_LOC};
use transputer::process::{workspace_word, PW_TIME};
use transputer::timing::{HI_TICK_CYCLES, LO_TICK_CYCLES};
use transputer::{Cpu, CpuConfig, Priority, RunOutcome, StepEvent};

struct Asm(Vec<u8>);

impl Asm {
    fn new() -> Asm {
        Asm(Vec::new())
    }
    fn d(&mut self, f: Direct, v: i64) -> &mut Asm {
        self.0.extend(encode(f, v));
        self
    }
    fn o(&mut self, op: Op) -> &mut Asm {
        self.0.extend(encode_op(op));
        self
    }
    /// Count `w[1]` down from `n` to zero, one loop iteration a count.
    fn countdown(&mut self, n: i64) -> &mut Asm {
        self.d(Direct::LoadConstant, n).d(Direct::StoreLocal, 1);
        let top = self.0.len() as i64;
        self.d(Direct::LoadLocal, 1)
            .d(Direct::AddConstant, -1)
            .d(Direct::StoreLocal, 1)
            .d(Direct::LoadLocal, 1);
        // `cj` skips the backward `j`; both operands are small, so `cj`
        // is one byte and `j` is found by trying its lengths.
        let after_cj = self.0.len() as i64 + 1;
        let mut len = 1;
        let back = loop {
            let j = encode(Direct::Jump, top - (after_cj + len));
            if j.len() as i64 == len {
                break j;
            }
            len = j.len() as i64;
        };
        self.d(Direct::ConditionalJump, len);
        self.0.extend(back);
        self
    }
    /// Wait on the timer until `ticks` after now, store the clock then
    /// in `w[1]` and stop.
    fn sleep_then_record(&mut self, ticks: i64) -> &mut Asm {
        self.o(Op::LoadTimer)
            .d(Direct::AddConstant, ticks)
            .o(Op::TimerInput)
            .o(Op::LoadTimer)
            .d(Direct::StoreLocal, 1)
            .o(Op::StopProcess)
    }
}

/// The memory maps: none of the reserved words or workspaces pay a
/// penalty; the workspaces do (the default map's external memory); and
/// everything does, the reserved words included (the `on_chip_memory`
/// ablation's map).
fn maps() -> [(&'static str, MemoryConfig); 3] {
    [
        ("t424", MemoryConfig::t424()),
        (
            "default_p3",
            MemoryConfig::default().with_external(60 * 1024, 3),
        ),
        (
            "off_chip_p2",
            MemoryConfig {
                on_chip_bytes: 0,
                off_chip_bytes: 64 * 1024,
                off_chip_penalty: 2,
            },
        ),
    ]
}

/// A machine with processes `(code, priority)` loaded back to back from
/// `mem_start` and spawned in order, each with a 64-word frame below the
/// previous one's, the first at `default_boot_workspace`. Returns the
/// machine and the workspaces.
fn machine(config: CpuConfig, procs: &[(&Asm, Priority)]) -> (Cpu, Vec<u32>) {
    let mut cpu = Cpu::new(config);
    let bpw = cpu.word_length().bytes_per_word();
    let mut at = cpu.memory().mem_start();
    let mut wptr = cpu.default_boot_workspace();
    let mut workspaces = Vec::new();
    for (code, pri) in procs {
        cpu.load(at, &code.0).unwrap();
        cpu.spawn(wptr, at, *pri);
        workspaces.push(wptr);
        at += code.0.len() as u32;
        wptr -= 64 * bpw;
    }
    (cpu, workspaces)
}

/// A high-priority `tin` wait across many high ticks while a
/// low-priority loop computes: the queue head is non-empty for 30 ticks.
fn high_wait_under_load() -> Vec<(Asm, Priority)> {
    let mut hi = Asm::new();
    hi.sleep_then_record(30);
    let mut lo = Asm::new();
    lo.countdown(400).o(Op::LoadTimer).o(Op::HaltSimulation);
    vec![(hi, Priority::High), (lo, Priority::Low)]
}

/// A timer-guarded ALT at low priority that times out after three low
/// ticks, while a second low process computes; the woken ALT halts.
fn alt_times_out() -> Vec<(Asm, Priority)> {
    let mut alt = Asm::new();
    alt.o(Op::LoadTimer)
        .d(Direct::AddConstant, 3)
        .d(Direct::StoreLocal, 2);
    alt.o(Op::TimerAlt);
    alt.d(Direct::LoadLocal, 2)
        .d(Direct::LoadConstant, 1)
        .o(Op::EnableTimer);
    alt.o(Op::TimerAltWait);
    alt.d(Direct::LoadLocal, 2)
        .d(Direct::LoadConstant, 1)
        .d(Direct::LoadConstant, 0)
        .o(Op::DisableTimer);
    alt.o(Op::AltEnd);
    alt.o(Op::LoadTimer).o(Op::HaltSimulation);
    let mut busy = Asm::new();
    busy.countdown(30_000).o(Op::HaltSimulation);
    vec![(alt, Priority::Low), (busy, Priority::Low)]
}

/// A high-priority ALT on a channel and a 200-tick timeout; the
/// low-priority loop outputs on the channel long before the timeout, so
/// `dist` takes the armed entry off the queue before it fires.
fn alt_guard_disabled_before_it_fires() -> Vec<(Asm, Priority)> {
    // The channel is the low process's `w[4]`: the high frame sits 64
    // words below it.
    let chan = 64 + 4;
    let mut alt = Asm::new();
    alt.o(Op::MinimumInteger).d(Direct::StoreLocal, chan);
    alt.o(Op::LoadTimer)
        .d(Direct::AddConstant, 200)
        .d(Direct::StoreLocal, 2);
    alt.o(Op::TimerAlt);
    alt.d(Direct::LoadLocalPointer, chan)
        .d(Direct::LoadConstant, 1)
        .o(Op::EnableChannel);
    alt.d(Direct::LoadLocal, 2)
        .d(Direct::LoadConstant, 1)
        .o(Op::EnableTimer);
    alt.o(Op::TimerAltWait);
    alt.d(Direct::LoadLocalPointer, chan)
        .d(Direct::LoadConstant, 1)
        .d(Direct::LoadConstant, 0)
        .o(Op::DisableChannel);
    alt.d(Direct::LoadLocal, 2)
        .d(Direct::LoadConstant, 1)
        .d(Direct::LoadConstant, 0)
        .o(Op::DisableTimer);
    alt.o(Op::AltEnd);
    alt.d(Direct::LoadLocalPointer, 8)
        .d(Direct::LoadLocalPointer, chan)
        .d(Direct::LoadConstant, 4)
        .o(Op::InputMessage);
    alt.o(Op::LoadTimer)
        .d(Direct::StoreLocal, 1)
        .o(Op::StopProcess);
    let mut lo = Asm::new();
    lo.countdown(100);
    lo.d(Direct::LoadConstant, 1234)
        .d(Direct::LoadLocalPointer, 4)
        .o(Op::OutputWord);
    lo.countdown(300).o(Op::LoadTimer).o(Op::HaltSimulation);
    // The high process is spawned second, so its frame is the lower.
    vec![(lo, Priority::Low), (alt, Priority::High)]
}

/// Both timer queues armed at once: a high wait of 250 ticks and a low
/// wait of 3, while a third process computes.
fn both_queues_armed() -> Vec<(Asm, Priority)> {
    let mut hi = Asm::new();
    hi.sleep_then_record(250);
    let mut lo = Asm::new();
    lo.sleep_then_record(3);
    let mut busy = Asm::new();
    busy.countdown(1_500).o(Op::LoadTimer).o(Op::HaltSimulation);
    vec![
        (hi, Priority::High),
        (lo, Priority::Low),
        (busy, Priority::Low),
    ]
}

/// On the T222: the clocks are set 16 ticks short of the 16-bit wrap and
/// a high-priority wait of 40 ticks crosses it, while a low-priority
/// loop runs long enough for the low clock to cross it too.
fn t222_wait_across_the_wrap() -> Vec<(Asm, Priority)> {
    let mut hi = Asm::new();
    hi.d(Direct::LoadConstant, -16).o(Op::StoreTimer);
    hi.sleep_then_record(40);
    let mut lo = Asm::new();
    lo.countdown(3_000).o(Op::LoadTimer).o(Op::HaltSimulation);
    vec![(hi, Priority::High), (lo, Priority::Low)]
}

/// FNV-1a over a debug rendering: one literal for a whole `Stats`.
fn digest(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// What a run pins: cycles, `Areg` at the halt, `w[1]` of every
/// workspace, both clocks, and the digest of `Stats::simulated()`.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    cycles: u64,
    areg: u32,
    recorded: Vec<u32>,
    clocks: [u32; 2],
    stats: u64,
}

fn pin(config: CpuConfig, procs: &[(Asm, Priority)], batched: bool) -> Pin {
    let procs: Vec<_> = procs.iter().map(|(a, p)| (a, *p)).collect();
    let (mut cpu, workspaces) = machine(config, &procs);
    let outcome = if batched {
        cpu.run_batched(10_000_000)
    } else {
        cpu.run(10_000_000)
    };
    assert!(matches!(outcome, Ok(RunOutcome::Halted(_))), "{outcome:?}");
    let bpw = cpu.word_length().bytes_per_word();
    Pin {
        cycles: cpu.cycles(),
        areg: cpu.areg(),
        recorded: workspaces
            .iter()
            .map(|&w| cpu.inspect_word(w + bpw).unwrap())
            .collect(),
        clocks: [
            cpu.clock_value(Priority::High),
            cpu.clock_value(Priority::Low),
        ],
        stats: digest(&format!("{:?}", cpu.stats().simulated())),
    }
}

/// Literal values; the step and the batched drive must both reproduce
/// them. The `t424` rows were taken before the tick walk became one
/// rule. The `default_p3` and `off_chip_p2` rows were taken from the
/// rule that reads no memory before a head's due tick, with the host's
/// set-up untimed: `Cpu::new`'s reserved words and `spawn`'s `Iptr`
/// written through `Memory::poke_word` and nothing else changed, so the
/// translation tier's leaving the penalised maps moves none of them.
#[test]
fn tick_rule_is_pinned() {
    type Scenario = (
        &'static str,
        fn() -> Vec<(Asm, Priority)>,
        fn() -> CpuConfig,
    );
    let scenarios: [Scenario; 5] = [
        (
            "high_wait_under_load",
            high_wait_under_load,
            CpuConfig::t424,
        ),
        ("alt_times_out", alt_times_out, CpuConfig::t424),
        (
            "alt_guard_disabled_before_it_fires",
            alt_guard_disabled_before_it_fires,
            CpuConfig::t424,
        ),
        ("both_queues_armed", both_queues_armed, CpuConfig::t424),
        (
            "t222_wait_across_the_wrap",
            t222_wait_across_the_wrap,
            CpuConfig::t222,
        ),
    ];
    let mut got = Vec::new();
    for (name, scenario, part) in scenarios {
        for (map, memory) in maps() {
            let procs = scenario();
            let stepped = pin(part().with_memory(memory), &procs, false);
            let batched = pin(part().with_memory(memory), &procs, true);
            assert_eq!(stepped, batched, "{name} on {map}: step against batched");
            got.push(stepped);
        }
    }
    let p = |cycles, areg, recorded: &[u32], clocks, stats| Pin {
        cycles,
        areg,
        recorded: recorded.to_vec(),
        clocks,
        stats,
    };
    // Per scenario: the t424, default_p3 and off_chip_p2 maps.
    let expected = [
        p(5_296, 4, &[32, 0], [264, 4], 11726868520843702624),
        p(8_935, 6, &[32, 0], [446, 6], 3986283829273737037),
        p(14_168, 11, &[32, 0], [708, 11], 14246414576880651692),
        p(5_152, 4, &[0, 29_610], [257, 4], 10013223746614323861),
        p(5_188, 4, &[0, 29_772], [259, 4], 14447556259116243860),
        p(5_217, 4, &[0, 29_857], [260, 4], 14711539860061269543),
        p(5_395, 4, &[0, 73], [269, 4], 17516441135661735600),
        p(9_145, 7, &[0, 125], [457, 7], 17516441135661735600),
        p(14_419, 11, &[0, 193], [720, 11], 17516441135661735600),
        p(19_647, 15, &[252, 5, 0], [982, 15], 8116974253723869251),
        p(33_237, 25, &[252, 5, 0], [1_661, 25], 8116974253723869251),
        p(52_783, 41, &[252, 5, 0], [2_639, 41], 6756861574296116405),
        p(39_100, 14, &[26, 0], [1_938, 14], 9007965405127207232),
        p(66_139, 35, &[26, 0], [3_290, 35], 18360760440616842590),
        p(105_180, 66, &[26, 0], [5_242, 66], 13555607901843017100),
    ];
    assert_eq!(got, expected);
}

/// `sttimer` moves the clock under a waiting head, which is then due at
/// once. A low wait armed for clock 1 001 when another process sets the
/// clock to 2 000 wakes on the next tick, reading 2 001. A high wait
/// armed for clock 2, whose due tick is less than a tick away when a
/// low process sets the clock to 100, wakes on the first tick after the
/// set (clock 101); the switch into it crosses one more tick, so it
/// reads 102.
#[test]
fn sttimer_relatches_a_waiting_head() {
    let mut wait = Asm::new();
    wait.o(Op::LoadTimer)
        .d(Direct::AddConstant, 1_000)
        .o(Op::TimerInput)
        .o(Op::LoadTimer)
        .o(Op::HaltSimulation);
    let mut set = Asm::new();
    set.d(Direct::LoadConstant, 2_000)
        .o(Op::StoreTimer)
        .o(Op::StopProcess);
    let procs = [(wait, Priority::Low), (set, Priority::Low)];
    for batched in [false, true] {
        assert_eq!(pin(CpuConfig::t424(), &procs, batched).areg, 2_001);
    }
    let mut wait = Asm::new();
    wait.sleep_then_record(1);
    let mut set = Asm::new();
    set.d(Direct::LoadConstant, 100).o(Op::StoreTimer);
    set.countdown(50).o(Op::HaltSimulation);
    let procs = [(wait, Priority::High), (set, Priority::Low)];
    for batched in [false, true] {
        assert_eq!(pin(CpuConfig::t424(), &procs, batched).recorded[0], 102);
    }
}

/// On the T222, a high queue left empty for more than half the 16-bit
/// clock's range (a low loop runs over 33 000 high ticks while the high
/// process waits on a channel) and then armed for 40 ticks comes due 41
/// ticks after the process read the clock, and the switch back into it
/// crosses one more tick: it reads 42 later. Its due tick is counted
/// from a current clock, not from a register that many ticks behind.
#[test]
fn a_queue_empty_past_half_the_clock_arms_from_a_current_clock() {
    // The channel is the low process's `w[4]`: the high frame sits 64
    // words below it.
    let chan = 64 + 4;
    let mut lo = Asm::new();
    lo.countdown(30_000).countdown(30_000).countdown(30_000);
    lo.d(Direct::LoadConstant, 7)
        .d(Direct::LoadLocalPointer, 4)
        .o(Op::OutputWord);
    lo.countdown(300).o(Op::HaltSimulation);
    let mut hi = Asm::new();
    hi.o(Op::MinimumInteger).d(Direct::StoreLocal, chan);
    hi.d(Direct::LoadLocalPointer, 8)
        .d(Direct::LoadLocalPointer, chan)
        .d(Direct::LoadConstant, 2)
        .o(Op::InputMessage);
    hi.o(Op::LoadTimer)
        .d(Direct::StoreLocal, 2)
        .d(Direct::LoadLocal, 2)
        .d(Direct::AddConstant, 40)
        .o(Op::TimerInput)
        .o(Op::LoadTimer)
        .d(Direct::LoadLocal, 2)
        .o(Op::Difference)
        .d(Direct::StoreLocal, 1)
        .o(Op::StopProcess);
    let procs = [(lo, Priority::Low), (hi, Priority::High)];
    for batched in [false, true] {
        let run = pin(CpuConfig::t222(), &procs, batched);
        assert!(run.cycles > 33_000 * 20, "{} cycles", run.cycles);
        assert_eq!(run.recorded[1], 42);
    }
}

/// A high and a low wait that come due on the same tick of an idle
/// processor: the high clock reaches 128 and the low clock 2 at cycle
/// 2 560. The high queue is walked first, so the high process runs at
/// once and the low one after it, with no preemption, and the low clock
/// is read at the tick its wait came due.
#[test]
fn coincident_due_ticks_wake_high_priority_first() {
    let mut hi = Asm::new();
    hi.sleep_then_record(127);
    let mut lo = Asm::new();
    lo.o(Op::LoadTimer)
        .d(Direct::AddConstant, 1)
        .o(Op::TimerInput)
        .o(Op::LoadTimer)
        .o(Op::HaltSimulation);
    let procs = [(hi, Priority::High), (lo, Priority::Low)];
    for batched in [false, true] {
        let procs: Vec<_> = procs.iter().map(|(a, p)| (a, *p)).collect();
        let (mut cpu, workspaces) = machine(CpuConfig::t424(), &procs);
        let outcome = if batched {
            cpu.run_batched(1_000_000)
        } else {
            cpu.run(1_000_000)
        };
        assert!(matches!(outcome, Ok(RunOutcome::Halted(_))), "{outcome:?}");
        let bpw = cpu.word_length().bytes_per_word();
        assert_eq!(cpu.inspect_word(workspaces[0] + bpw).unwrap(), 128);
        assert_eq!(cpu.areg(), 2);
        assert_eq!(cpu.stats().preemptions, 0);
    }
}

/// A wait of half the clock's range: `ldtimer; ldc MOSTPOS; sum; tin`
/// asks for a time that the clock at the `tin` reads as not yet after it,
/// and stores a wake time 2^(w-1) ticks on, which the very next tick
/// reads as ahead again. The wait ends after exactly half the clock's
/// range, on the T222 and on the T424, at either priority. A latch that
/// counted
/// the due tick again from the clock before a walked tick would find
/// that tick due for ever, and the run would never halt.
#[test]
fn a_wait_of_half_the_clock_ends_on_time() {
    for (part, bits) in [
        (CpuConfig::t222 as fn() -> CpuConfig, 16),
        (CpuConfig::t424, 32),
    ] {
        for (pri, period) in [
            (Priority::Low, LO_TICK_CYCLES),
            (Priority::High, HI_TICK_CYCLES),
        ] {
            let half = 1u64 << (bits - 1);
            let mut a = Asm::new();
            a.o(Op::LoadTimer)
                .d(Direct::StoreLocal, 1)
                .d(Direct::LoadLocal, 1)
                .d(Direct::LoadConstant, half as i64 - 1)
                .o(Op::Sum)
                .o(Op::TimerInput)
                .o(Op::LoadTimer)
                .d(Direct::LoadLocal, 1)
                .o(Op::Difference)
                .o(Op::HaltSimulation);
            for batched in [false, true] {
                let (mut cpu, _) = machine(part(), &[(&a, pri)]);
                let outcome = if batched {
                    cpu.run_batched(u64::MAX)
                } else {
                    cpu.run(u64::MAX)
                };
                assert!(matches!(outcome, Ok(RunOutcome::Halted(_))), "{outcome:?}");
                assert_eq!(u64::from(cpu.areg()), half, "{bits} bits, {pri:?}");
                let ticks = cpu.cycles() / period;
                assert!(ticks >= half && ticks <= half + 2, "{ticks} {pri:?} ticks");
            }
        }
    }
}

/// Two low waits that come due one tick apart, both passed by one idle
/// advance: the walk takes each at its own tick. At the first it wakes
/// the first waiter, then reads the second head and its wake time and
/// finds that tick's clock short of it. Those reads are the processor's
/// work, so on every map the run takes as many cycles as one whose host
/// advances a due tick at a time. The waiters run in the order they
/// came due, once the advance is over, and read its clock.
#[test]
fn one_advance_across_two_due_ticks_walks_each() {
    fn run(memory: MemoryConfig, tick_at_a_time: bool) -> (u64, Vec<u32>) {
        let mut first = Asm::new();
        first.sleep_then_record(2);
        let mut second = Asm::new();
        second
            .o(Op::LoadTimer)
            .d(Direct::AddConstant, 3)
            .o(Op::TimerInput)
            .o(Op::LoadTimer)
            .d(Direct::StoreLocal, 1)
            .o(Op::HaltSimulation);
        let procs = [(&first, Priority::Low), (&second, Priority::Low)];
        let (mut cpu, workspaces) = machine(CpuConfig::t424().with_memory(memory), &procs);
        while cpu.step() != StepEvent::Idle {}
        let wake = cpu.next_timer_wake_cycle().expect("a timer is armed");
        let leap = wake + 3 * LO_TICK_CYCLES;
        if tick_at_a_time {
            while let Some(tick) = cpu.next_timer_wake_cycle() {
                cpu.advance_idle_to(tick);
            }
        }
        cpu.advance_idle_to(leap);
        assert!(matches!(cpu.run(1_000_000), Ok(RunOutcome::Halted(_))));
        let bpw = cpu.word_length().bytes_per_word();
        let recorded = workspaces
            .iter()
            .map(|&w| cpu.inspect_word(w + bpw).unwrap())
            .collect();
        (cpu.cycles(), recorded)
    }
    for (map, memory) in maps() {
        let leapt = run(memory, false);
        assert_eq!(leapt.1, [6, 6], "{map}");
        assert_eq!(leapt, run(memory, true), "{map}");
    }
}

/// `ldtimer; adc 50; tin; ldtimer; haltsim`, driven by `Cpu::step`, with
/// `next_timer_wake_cycle` asked `asks` times whenever the processor
/// idles and, at the first idle, the waiting head's wake time poked to
/// `poke` if one is given: the cycles and the clock read at the end.
fn idle_wait(memory: MemoryConfig, asks: usize, poke: Option<u32>) -> (u64, u32) {
    let mut a = Asm::new();
    a.o(Op::LoadTimer)
        .d(Direct::AddConstant, 50)
        .o(Op::TimerInput)
        .o(Op::LoadTimer)
        .o(Op::HaltSimulation);
    let mut cpu = Cpu::new(CpuConfig::t424().with_memory(memory));
    cpu.load_boot_program(&a.0).unwrap();
    let mut poke = poke;
    loop {
        match cpu.step() {
            StepEvent::Ran { .. } => {}
            StepEvent::Halted(_) => return (cpu.cycles(), cpu.areg()),
            StepEvent::Idle => {
                if let Some(time) = poke.take() {
                    let wptr = cpu.default_boot_workspace();
                    let time_loc = workspace_word(cpu.word_length(), wptr, PW_TIME);
                    cpu.poke_word(time_loc, time).unwrap();
                }
                let wake = cpu.next_timer_wake_cycle().expect("a timer is armed");
                for _ in 1..asks {
                    assert_eq!(cpu.next_timer_wake_cycle(), Some(wake));
                }
                cpu.advance_idle_to(wake.max(cpu.cycles() + 1));
            }
        }
    }
}

/// Asking when the next timer wakes is a host-side query: on a map
/// where the queue head or its wake time sits off chip, asking five
/// times must cost no more simulated time than asking once.
#[test]
fn asking_for_the_next_wake_moves_nothing() {
    for (map, memory) in maps() {
        assert_eq!(
            idle_wait(memory, 5, None),
            idle_wait(memory, 1, None),
            "{map}"
        );
    }
}

/// The ticks an idle processor waits through read no memory, so on
/// every map the woken process's closing `ldtimer` reads the time it
/// asked for: no penalty of theirs delays it.
#[test]
fn an_idle_wait_ends_on_time_on_every_map() {
    for (map, memory) in maps() {
        assert_eq!(idle_wait(memory, 1, None).1, 51, "{map}");
    }
}

/// The tick on which a head comes due is latched when the head changes.
/// A poke that moves the waiting head's wake time later still wakes it
/// at the new time: the walk at the latched tick finds the time not
/// reached and latches again. A poke that moves it earlier takes effect
/// at the latched tick. A poke of the queue head itself is latched at
/// once.
#[test]
fn a_poked_wake_time_takes_effect_at_the_latched_tick() {
    for (map, memory) in maps() {
        assert_eq!(idle_wait(memory, 1, Some(101)).1, 101, "{map}: later");
        assert_eq!(idle_wait(memory, 1, Some(21)).1, 51, "{map}: earlier");
    }
    let mut a = Asm::new();
    a.o(Op::LoadTimer)
        .d(Direct::AddConstant, 50)
        .o(Op::TimerInput);
    let mut cpu = Cpu::new(CpuConfig::t424());
    cpu.load_boot_program(&a.0).unwrap();
    while cpu.step() != StepEvent::Idle {}
    assert!(cpu.next_timer_wake_cycle().is_some());
    let head_loc = cpu.memory().reserved_addr(TPTR_LOC[Priority::Low.index()]);
    let empty = cpu.word_length().most_neg();
    cpu.poke_word(head_loc, empty).unwrap();
    assert_eq!(cpu.next_timer_wake_cycle(), None, "the queue was emptied");
}

/// Setting up a processor moves no simulated time. `ldc 1; ldc 2;
/// haltsim`, booted by `load_boot_program`, runs to the halt in 5
/// cycles on the `t424` map, 8 on `default_p3` and 17 on `off_chip_p2`:
/// the writes of the reserved words and of the boot process's `Iptr` pay
/// no penalty. What the penalised maps add is the processor's own work:
/// on `default_p3` its dispatch read of `Iptr` from the off-chip
/// workspace (3 cycles), and on `off_chip_p2` that read and the fetch of
/// the program's five bytes (2 cycles each, 12 in all).
#[test]
fn setting_up_a_processor_moves_no_simulated_time() {
    let mut a = Asm::new();
    a.d(Direct::LoadConstant, 1)
        .d(Direct::LoadConstant, 2)
        .o(Op::HaltSimulation);
    assert_eq!(a.0.len(), 5);
    let mut cycles = Vec::new();
    for (_, memory) in maps() {
        let mut cpu = Cpu::new(CpuConfig::t424().with_memory(memory));
        cpu.load_boot_program(&a.0).unwrap();
        assert_eq!(cpu.cycles(), 0);
        assert!(matches!(cpu.run(1_000), Ok(RunOutcome::Halted(_))));
        cycles.push(cpu.cycles());
    }
    assert_eq!(cycles, [5, 8, 17]);
}

/// Host reads and writes of memory move no simulated time: `ldc 1;
/// ldc 2; haltsim` runs one step, the host reads, or reads and writes
/// back, a boot workspace word five times, and the run to the halt
/// takes as many cycles as with no access.
#[test]
fn host_memory_access_moves_nothing() {
    fn run(memory: MemoryConfig, access: fn(&mut Cpu, u32)) -> u64 {
        let mut a = Asm::new();
        a.d(Direct::LoadConstant, 1)
            .d(Direct::LoadConstant, 2)
            .o(Op::HaltSimulation);
        let mut cpu = Cpu::new(CpuConfig::t424().with_memory(memory));
        cpu.load_boot_program(&a.0).unwrap();
        cpu.step();
        let wptr = cpu.default_boot_workspace();
        for _ in 0..5 {
            access(&mut cpu, wptr);
        }
        assert!(matches!(cpu.run(1_000), Ok(RunOutcome::Halted(_))));
        cpu.cycles()
    }
    for (map, memory) in maps() {
        let untouched = run(memory, |_, _| {});
        let read = run(memory, |cpu, w| {
            cpu.inspect_word(w).unwrap();
        });
        let written = run(memory, |cpu, w| {
            let v = cpu.inspect_word(w).unwrap();
            cpu.poke_word(w, v).unwrap();
        });
        assert_eq!((read, written), (untouched, untouched), "{map}");
    }
}
