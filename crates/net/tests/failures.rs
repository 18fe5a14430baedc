//! Failure injection: the simulator must report faults faithfully, not
//! wedge or mask them.

use transputer::instr::{encode, encode_op, Direct, Op};
use transputer::HaltReason;
use transputer_net::{NetworkBuilder, NetworkConfig, SimError, SimOutcome};

fn halting() -> Vec<u8> {
    let mut c = encode(Direct::LoadConstant, 1);
    c.extend(encode_op(Op::HaltSimulation));
    c
}

/// A node that dereferences a wild pointer faults; the simulation
/// surfaces the node id and reason instead of carrying on.
#[test]
fn node_fault_is_reported() {
    let mut b = NetworkBuilder::new(NetworkConfig::default());
    let good = b.add_node();
    let bad = b.add_node();
    let mut net = b.build();
    net.node_mut(good).load_boot_program(&halting()).unwrap();
    let mut wild = encode(Direct::LoadConstant, 0);
    wild.extend(encode(Direct::LoadNonLocal, 0));
    wild.extend(encode_op(Op::HaltSimulation));
    net.node_mut(bad).load_boot_program(&wild).unwrap();
    match net.run_until_all_halted(1_000_000) {
        Err(SimError::NodeFault { node, reason }) => {
            assert_eq!(node, bad);
            assert!(matches!(reason, HaltReason::MemoryFault { .. }));
        }
        other => panic!("expected a node fault, got {other:?}"),
    }
}

/// Two nodes each waiting to input from the other: a distributed
/// deadlock, detected when no event can ever fire again.
#[test]
fn cross_wire_deadlock_detected() {
    let mut b = NetworkBuilder::new(NetworkConfig::default());
    let x = b.add_node();
    let y = b.add_node();
    b.connect((x, 0), (y, 0));
    let mut net = b.build();
    let reader = {
        let mut c = Vec::new();
        c.extend(encode(Direct::LoadLocalPointer, 1));
        c.extend(encode_op(Op::MinimumInteger));
        c.extend(encode(Direct::LoadNonLocalPointer, 4)); // link 0 in
        c.extend(encode(Direct::LoadConstant, 4));
        c.extend(encode_op(Op::InputMessage));
        c.extend(encode_op(Op::HaltSimulation));
        c
    };
    net.node_mut(x).load_boot_program(&reader).unwrap();
    net.node_mut(y).load_boot_program(&reader).unwrap();
    match net.run_until_all_halted(10_000_000).unwrap() {
        SimOutcome::Deadlock => {}
        other => panic!("deadlock should be detected, got {other:?}"),
    }
    // Both nodes are parked on their link input channels.
    assert!(net.node(x).is_idle());
    assert!(net.node(y).is_idle());
}

/// Actually the deadlock surfaces through `run_until` as an outcome.
#[test]
fn deadlock_outcome_via_run_until() {
    let mut b = NetworkBuilder::new(NetworkConfig::default());
    let x = b.add_node();
    let y = b.add_node();
    b.connect((x, 0), (y, 0));
    let mut net = b.build();
    let reader = {
        let mut c = Vec::new();
        c.extend(encode(Direct::LoadLocalPointer, 1));
        c.extend(encode_op(Op::MinimumInteger));
        c.extend(encode(Direct::LoadNonLocalPointer, 4));
        c.extend(encode(Direct::LoadConstant, 4));
        c.extend(encode_op(Op::InputMessage));
        c.extend(encode_op(Op::HaltSimulation));
        c
    };
    net.node_mut(x).load_boot_program(&reader).unwrap();
    net.node_mut(y).load_boot_program(&reader).unwrap();
    let out = net.run_until(10_000_000, |_| None).unwrap();
    assert_eq!(out, SimOutcome::Deadlock);
}

/// A budget too small to finish is reported as budget exhaustion, and
/// the network remains inspectable afterwards.
#[test]
fn budget_exhaustion() {
    let mut b = NetworkBuilder::new(NetworkConfig::default());
    let n = b.add_node();
    let mut net = b.build();
    // Endless timer loop.
    let mut code = Vec::new();
    let top = code.len();
    code.extend(encode_op(Op::LoadTimer));
    code.extend(encode(Direct::AddConstant, 2));
    code.extend(encode_op(Op::TimerInput));
    let dist = top as i64 - (code.len() as i64 + 2);
    code.extend(encode(Direct::Jump, dist));
    net.node_mut(n).load_boot_program(&code).unwrap();
    match net.run_until_all_halted(1_000_000) {
        Err(SimError::Budget { ns }) => assert_eq!(ns, 1_000_000),
        other => panic!("expected budget exhaustion, got {other:?}"),
    }
    assert!(net.time_ns() >= 1_000_000);
    assert!(net.node(n).cycles() > 0);
}

/// An error-flag halt (halt-on-error mode) is a node fault at network
/// level.
#[test]
fn error_flag_halt_is_a_fault() {
    let mut b = NetworkBuilder::new(NetworkConfig::default());
    let n = b.add_node();
    let mut net = b.build();
    let mut code = encode_op(Op::SetHaltOnError);
    code.extend(encode_op(Op::SetError));
    code.extend(encode_op(Op::HaltSimulation));
    net.node_mut(n).load_boot_program(&code).unwrap();
    match net.run_until_all_halted(1_000_000) {
        Err(SimError::NodeFault {
            reason: HaltReason::ErrorFlag,
            ..
        }) => {}
        other => panic!("expected error-flag fault, got {other:?}"),
    }
}

/// A time-limited run returns at its limit even with live traffic.
#[test]
fn run_for_respects_the_limit() {
    let mut b = NetworkBuilder::new(NetworkConfig::default());
    let x = b.add_node();
    let y = b.add_node();
    b.connect((x, 0), (y, 0));
    let mut net = b.build();
    // x streams words to y forever.
    let sender = {
        let mut c = Vec::new();
        let top = c.len();
        c.extend(encode(Direct::LoadConstant, 7));
        c.extend(encode_op(Op::MinimumInteger));
        c.extend(encode(Direct::LoadNonLocalPointer, 0));
        c.extend(encode_op(Op::OutputWord));
        let dist = top as i64 - (c.len() as i64 + 2);
        c.extend(encode(Direct::Jump, dist));
        c
    };
    let receiver = {
        let mut c = Vec::new();
        let top = c.len();
        c.extend(encode(Direct::LoadLocalPointer, 1));
        c.extend(encode_op(Op::MinimumInteger));
        c.extend(encode(Direct::LoadNonLocalPointer, 4));
        c.extend(encode(Direct::LoadConstant, 4));
        c.extend(encode_op(Op::InputMessage));
        let dist = top as i64 - (c.len() as i64 + 2);
        c.extend(encode(Direct::Jump, dist));
        c
    };
    net.node_mut(x).load_boot_program(&sender).unwrap();
    net.node_mut(y).load_boot_program(&receiver).unwrap();
    let out = net.run_for(5_000_000).unwrap();
    assert_eq!(out, SimOutcome::TimeLimit);
    assert!(net.time_ns() <= 5_000_000 + 1000);
    let (a, b_) = net.wire_delivered(0);
    assert!(a + b_ > 100, "traffic flowed during the window");
}

/// ALT across two link channels: the consumer takes whichever producer's
/// message arrives, exercising the enable/disable path on link hardware.
#[test]
fn alt_over_link_channels() {
    let consumer_src = "\
VAR first, second:
CHAN a, b:
PLACE a AT 4:
PLACE b AT 5:
SEQ
  ALT
    a ? first
      SKIP
    b ? first
      SKIP
  ALT
    a ? second
      SKIP
    b ? second
      SKIP
";
    let producer = |value: i64| format!("CHAN out:\nPLACE out AT 0:\nout ! {value}\n");
    let consumer = occam::compile(consumer_src).expect("consumer compiles");
    let p1 = occam::compile(&producer(111)).expect("p1 compiles");
    let p2 = occam::compile(&producer(222)).expect("p2 compiles");

    let mut b = NetworkBuilder::new(NetworkConfig::default());
    let c = b.add_node();
    let n1 = b.add_node();
    let n2 = b.add_node();
    b.connect((n1, 0), (c, 0));
    b.connect((n2, 0), (c, 1));
    let mut net = b.build();
    let wptr = consumer.load(net.node_mut(c)).expect("loads");
    p1.load(net.node_mut(n1)).expect("loads");
    p2.load(net.node_mut(n2)).expect("loads");
    net.run_until_all_halted(1_000_000_000).expect("completes");
    let first = consumer
        .read_global(net.node_mut(c), wptr, "first")
        .unwrap();
    let second = consumer
        .read_global(net.node_mut(c), wptr, "second")
        .unwrap();
    let mut got = vec![first, second];
    got.sort_unstable();
    assert_eq!(got, vec![111, 222], "both messages received, in some order");
}
