//! The timer clocks (§2.2.2: one clock and one timer queue per
//! priority) on every memory map the emulator models.
//!
//! A tick advances its priority's clock and wakes the queue head once
//! its time is reached. Where the reserved words or the workspaces sit
//! off chip, every tick's reads of the queue head and of the head's wake
//! time cost the off-chip penalty, so the tick rule shows in the cycle
//! count. `tick_rule_is_pinned` holds literal cycles, clocks and
//! statistics for directed scenarios on three maps; no scenario idles
//! with a timer armed, so the host's idle fast-forward plays no part.
//! `asking_for_the_next_wake_moves_nothing` covers that fast-forward: a
//! host-side query must not move the simulated machine.

use transputer::instr::{encode, encode_op, Direct, Op};
use transputer::memory::MemoryConfig;
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
            .map(|&w| cpu.peek_word(w + bpw).unwrap())
            .collect(),
        clocks: [
            cpu.clock_value(Priority::High),
            cpu.clock_value(Priority::Low),
        ],
        stats: digest(&format!("{:?}", cpu.stats().simulated())),
    }
}

/// Literal values taken before the tick walk became one rule; the step
/// and the batched drive must both reproduce them.
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
        p(9_031, 7, &[32, 0], [451, 7], 13168336252456885803),
        p(15_874, 12, &[34, 0], [793, 12], 14246414576880651692),
        p(5_152, 4, &[0, 29_610], [257, 4], 10013223746614323861),
        p(5_181, 4, &[0, 29_773], [259, 4], 11586886711749333510),
        p(5_231, 4, &[0, 29_873], [261, 4], 16225911085586407105),
        p(5_395, 4, &[0, 73], [269, 4], 17516441135661735600),
        p(9_562, 7, &[0, 146], [478, 7], 17516441135661735600),
        p(16_611, 12, &[0, 242], [830, 12], 10160008984638475180),
        p(19_647, 15, &[252, 5, 0], [982, 15], 8116974253723869251),
        p(34_002, 26, &[252, 5, 0], [1_700, 26], 6756861574296116405),
        p(59_351, 46, &[255, 6, 0], [2_967, 46], 10897363472342077928),
        p(39_100, 14, &[26, 0], [1_938, 14], 9007965405127207232),
        p(66_265, 35, &[26, 0], [3_296, 35], 2275789690964946861),
        p(117_196, 75, &[27, 0], [5_841, 75], 2275789690964946861),
    ];
    assert_eq!(got, expected);
}

/// `ldtimer; adc 50; tin; ldtimer; haltsim`, driven by `Cpu::step`, with
/// `next_timer_wake_cycle` asked `asks` times whenever the processor
/// idles: the cycles and the clock read at the end.
fn idle_wait(memory: MemoryConfig, asks: usize) -> (u64, u32) {
    let mut a = Asm::new();
    a.o(Op::LoadTimer)
        .d(Direct::AddConstant, 50)
        .o(Op::TimerInput)
        .o(Op::LoadTimer)
        .o(Op::HaltSimulation);
    let mut cpu = Cpu::new(CpuConfig::t424().with_memory(memory));
    cpu.load_boot_program(&a.0).unwrap();
    loop {
        match cpu.step() {
            StepEvent::Ran { .. } => {}
            StepEvent::Halted(_) => return (cpu.cycles(), cpu.areg()),
            StepEvent::Idle => {
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
        assert_eq!(idle_wait(memory, 5), idle_wait(memory, 1), "{map}");
    }
}
