//! Registry of everything the experiment binaries (e01–e17) execute,
//! for static analysis: the hand-assembled I1 images and the generated
//! occam sources. `lint_corpus` runs the CFG-based bytecode verifier
//! over every image and the full lint stack over every source, so a
//! change that makes an experiment workload unverifiable fails the gate
//! even if the experiment itself still runs.
//!
//! The images of more than a line are built here and nowhere else: e05,
//! e06, e08 and e14 call [`rendezvous_image`], [`priority_image`] with
//! [`priority_mixes`], and [`link_image`], so the gate verifies the
//! bytes those experiments execute. The one-line measured sequences
//! (e01–e04, e13) are restated through [`crate::asm`], the assembler
//! the binaries pass them to. Experiments that only exercise the link
//! layer (e07) or run corpus/occam programs covered elsewhere (e09–e12,
//! e15–e17) contribute no raw image.

use transputer::instr::{encode, encode_op, Direct, Op};
use transputer::memory::{LINK_IN_BASE, LINK_OUT_BASE};
use transputer_apps::dbsearch::{self, DbSearchConfig, HypercubeConfig};
use transputer_apps::workstation::{self, Placement, WorkstationConfig};

/// A raw I1 image as an experiment executes it.
pub struct ExpImage {
    /// `eNN-<what>` label for gate output.
    pub name: &'static str,
    /// The code bytes, terminator included.
    pub code: Vec<u8>,
}

/// Mirror of [`crate::measure_sequence_with_setup`]'s image layout:
/// setup, then the measured sequence, then the halt terminator.
fn measured(setup: &str, seq: &str) -> Vec<u8> {
    let mut code = crate::asm(setup);
    code.extend(crate::asm(seq));
    code.extend(encode_op(Op::HaltSimulation));
    code
}

/// E5/E14's two-process rendezvous of `n` bytes on an internal channel,
/// and the sender's entry offset: the receiver at offset 0, the sender
/// concatenated after it (spawned directly, so reachable only as a
/// second entry point). The receiver's workspace holds the channel at
/// `w[1]` and its buffer at `w[8..]`; the sender's workspace is 64 words
/// below, so the channel is its `w[65]`, with its own buffer at `w[8..]`.
pub fn rendezvous_image(n: u32) -> (Vec<u8>, usize) {
    let mut code = Vec::new();
    // Receiver: chan := NotProcess; in(n, chan, buf); haltsim.
    code.extend(encode_op(Op::MinimumInteger));
    code.extend(encode(Direct::StoreLocal, 1));
    code.extend(encode(Direct::LoadLocalPointer, 8)); // dest buffer
    code.extend(encode(Direct::LoadLocalPointer, 1)); // channel address
    code.extend(encode(Direct::LoadConstant, i64::from(n)));
    code.extend(encode_op(Op::InputMessage));
    code.extend(encode_op(Op::HaltSimulation));
    let sender_entry = code.len();
    // Sender: out(n, chan, buf); stopp.
    code.extend(encode(Direct::LoadLocalPointer, 8));
    code.extend(encode(Direct::LoadLocalPointer, 65));
    code.extend(encode(Direct::LoadConstant, i64::from(n)));
    code.extend(encode_op(Op::OutputMessage));
    code.extend(encode_op(Op::StopProcess));
    (code, sender_entry)
}

/// E6's image for one low-priority instruction mix, and the
/// high-priority entry offset: the busy loop `body; j back` at offset
/// 0, then the high-priority timer waker (200 wakes, 3 ticks apart).
///
/// # Panics
///
/// Panics if `body` is too long for the loop's two-byte jump back.
pub fn priority_image(body: &[u8]) -> (Vec<u8>, usize) {
    let mut code = body.to_vec();
    let back = encode(Direct::Jump, -(code.len() as i64 + 2));
    assert_eq!(back.len(), 2, "loop body sized for a 2-byte jump");
    code.extend(back);
    let hi_entry = code.len();
    code.extend(encode(Direct::LoadConstant, 200));
    code.extend(encode(Direct::StoreLocal, 2));
    let loop_top = code.len();
    code.extend(encode_op(Op::LoadTimer));
    code.extend(encode(Direct::AddConstant, 3));
    code.extend(encode_op(Op::TimerInput));
    code.extend(encode(Direct::LoadLocal, 2));
    code.extend(encode(Direct::AddConstant, -1));
    code.extend(encode(Direct::StoreLocal, 2));
    code.extend(encode(Direct::LoadLocal, 2));
    code.extend(encode(Direct::ConditionalJump, 2));
    let dist = loop_top as i64 - (code.len() as i64 + 2);
    code.extend(encode(Direct::Jump, dist));
    code.extend(encode_op(Op::HaltSimulation));
    (code, hi_entry)
}

/// E6's four adversarial low-priority instruction mixes — the longest
/// instructions in the set: `(gate label, table name, loop body)`.
pub fn priority_mixes() -> Vec<(&'static str, &'static str, Vec<u8>)> {
    vec![
        ("e06-multiply-storm", "multiply storm", {
            let mut b = Vec::new();
            b.extend(encode(Direct::LoadConstant, 3));
            b.extend(encode(Direct::LoadConstant, 3));
            b.extend(encode_op(Op::Multiply));
            b.extend(encode(Direct::StoreLocal, 1));
            b
        }),
        ("e06-divide-storm", "divide storm", {
            let mut b = Vec::new();
            b.extend(encode(Direct::LoadConstant, 7));
            b.extend(encode(Direct::LoadConstant, 3));
            b.extend(encode_op(Op::Divide));
            b.extend(encode(Direct::StoreLocal, 1));
            b
        }),
        ("e06-block-move-storm", "block move storm", {
            // move 32 bytes between local buffers each iteration
            // (interruptible: resumes after the switch).
            let mut b = Vec::new();
            b.extend(encode(Direct::LoadLocalPointer, 24)); // dst -> C
            b.extend(encode(Direct::LoadLocalPointer, 8)); // src -> B
            b.extend(encode(Direct::LoadConstant, 32)); // count -> A
            b.extend(encode_op(Op::Move));
            b
        }),
        ("e06-long-shift-storm", "long shift storm", {
            let mut b = Vec::new();
            b.extend(encode(Direct::LoadConstant, 1)); // high
            b.extend(encode(Direct::LoadConstant, 1)); // low
            b.extend(encode(Direct::LoadConstant, 40)); // places
            b.extend(encode_op(Op::LongShiftLeft));
            b.extend(encode(Direct::StoreLocal, 1));
            b.extend(encode(Direct::StoreLocal, 2));
            b
        }),
    ]
}

/// One end of E8's `n`-byte message over link 0: `op` (`out` or `in`)
/// on the channel word `port_base` words above `MostNeg`
/// ([`LINK_OUT_BASE`] or [`LINK_IN_BASE`]), buffer at `w[1..]`.
pub fn link_image(port_base: u32, op: Op, n: u32) -> Vec<u8> {
    let mut code = Vec::new();
    code.extend(encode(Direct::LoadLocalPointer, 1));
    code.extend(encode_op(Op::MinimumInteger));
    code.extend(encode(Direct::LoadNonLocalPointer, i64::from(port_base)));
    code.extend(encode(Direct::LoadConstant, i64::from(n)));
    code.extend(encode_op(op));
    code.extend(encode_op(Op::HaltSimulation));
    code
}

/// Every hand-assembled image an experiment loads into a CPU.
pub fn experiment_images() -> Vec<ExpImage> {
    let mut images = vec![
        ExpImage {
            name: "e01-assign-constant",
            code: measured("", "load constant 0\nstore local 1"),
        },
        ExpImage {
            name: "e01-assign-variable",
            code: measured("", "load local 2\nstore local 1"),
        },
        ExpImage {
            name: "e02-static-link-store",
            code: measured(
                "load local pointer 8\nstore local 2",
                "load constant 1\nload local 2\nstore non local 3",
            ),
        },
        ExpImage {
            name: "e03-prefixed-constant",
            code: {
                let mut code = encode(Direct::LoadConstant, 0x754);
                code.extend(encode_op(Op::HaltSimulation));
                code
            },
        },
        ExpImage {
            name: "e04-add-constant",
            code: measured("", "ldl 1\nadc 2"),
        },
        ExpImage {
            name: "e04-expression",
            code: measured("", "ldl 1\nldl 2\nadd\nldl 3\nldl 4\nadd\nmul"),
        },
        ExpImage {
            name: "e05-internal-rendezvous",
            code: rendezvous_image(4).0,
        },
        ExpImage {
            name: "e08-link-sender",
            code: link_image(LINK_OUT_BASE, Op::OutputMessage, 4),
        },
        ExpImage {
            name: "e08-link-receiver",
            code: link_image(LINK_IN_BASE, Op::InputMessage, 4),
        },
        ExpImage {
            name: "e13-typical-sequence",
            code: {
                let mut src = String::new();
                for _ in 0..100 {
                    src.push_str("ldl 1\nadc 1\nstl 1\n");
                }
                measured("", &src)
            },
        },
        ExpImage {
            name: "e14-context-switch",
            code: rendezvous_image(4).0,
        },
    ];
    for (name, _, body) in priority_mixes() {
        images.push(ExpImage {
            name,
            code: priority_image(&body).0,
        });
    }
    images
}

/// Every generated occam source an experiment compiles (beyond the
/// shared corpus): the compiler-shape checks from e01/e02/e04, the
/// per-node application sources from e09–e11 and e16, and the uniform
/// routed programs from e17.
pub fn experiment_sources() -> Vec<(String, String)> {
    let mut sources: Vec<(String, String)> = vec![
        (
            "e01-compiler-check".to_string(),
            "VAR x, y:\nSEQ\n  y := 9\n  x := y".to_string(),
        ),
        (
            "e02-compiler-check".to_string(),
            "VAR z:\n\
             PROC setz =\n\
             \x20 z := 1\n\
             :\n\
             SEQ\n\
             \x20 z := 0\n\
             \x20 setz ()"
                .to_string(),
        ),
        (
            "e04-compiler-check".to_string(),
            "VAR x, r:\nSEQ\n  x := 5\n  r := x + 2".to_string(),
        ),
    ];
    for (name, source) in dbsearch::array_sources(&DbSearchConfig::figure8()) {
        sources.push((format!("e09-{name}"), source));
    }
    for (name, source) in dbsearch::hypercube_sources(&HypercubeConfig::hypercube256()) {
        sources.push((format!("e16-{name}"), source));
    }
    for (name, source) in dbsearch::routed_sources(&DbSearchConfig::figure8()) {
        sources.push((format!("e17-{name}"), source));
    }
    let wcfg = WorkstationConfig::default();
    for placement in Placement::ALL {
        for (i, source) in workstation::placement_sources(placement, &wcfg)
            .into_iter()
            .enumerate()
        {
            sources.push((
                format!("e11-placement{}-node{i}", placement.transputers()),
                source,
            ));
        }
    }
    sources
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_populated() {
        let images = experiment_images();
        assert!(images.len() >= 14);
        for img in &images {
            assert!(!img.code.is_empty(), "{} is empty", img.name);
        }
        let sources = experiment_sources();
        assert!(sources.len() >= 3 + 18 + 6, "{} sources", sources.len());
        // The e16 hypercube contributes its deduplicated node programs
        // plus the two hosts.
        let e16 = sources
            .iter()
            .filter(|(n, _)| n.starts_with("e16-"))
            .count();
        assert!(e16 >= 3, "{e16} e16 sources");
        // The e17 routed search contributes its uniform node program
        // plus the two hosts.
        let e17 = sources
            .iter()
            .filter(|(n, _)| n.starts_with("e17-"))
            .count();
        assert!(e17 >= 3, "{e17} e17 sources");
    }

    #[test]
    fn rendezvous_image_has_both_entries() {
        // The sender entry sits right after the receiver's haltsim.
        let (img, sender_entry) = rendezvous_image(4);
        let halt = encode_op(Op::HaltSimulation);
        assert_eq!(&img[sender_entry - halt.len()..sender_entry], &halt[..]);
        assert_eq!(
            &img[sender_entry..sender_entry + 1],
            &encode(Direct::LoadLocalPointer, 8)[..1],
            "sender entry starts with ldlp 8"
        );
    }
}
