//! Boot from link.
//!
//! Real transputers power up with no code in RAM: "transputers can be
//! interconnected just as easily as TTL gates" (§2.3.1) extends to
//! bootstrapping — a blank part listens on its links, takes the first
//! byte received as a length, loads that many bytes at the first user
//! address, and starts executing them. A network can thus be loaded
//! entirely through the wiring, from a single host, with the first-stage
//! program free to pull in a larger second stage itself.
//!
//! The boot ROM behaviour is modelled natively (it is hardwired logic,
//! not I1 code).

use super::Cpu;
use crate::process::Priority;
use crate::word::Width;

/// Progress of a boot sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BootState {
    /// Waiting for the length byte on any link.
    AwaitLength,
    /// Receiving `remaining` code bytes, next one to `addr`; the boot is
    /// committed to the link it started on.
    Loading {
        link: usize,
        addr: u32,
        remaining: u32,
    },
    /// Boot complete (or the part was never in boot mode).
    Done,
}

impl Cpu {
    /// Put a (blank) transputer into boot-from-link mode: the next byte
    /// arriving on any link is a code length `1..=255`, followed by that
    /// many bytes of position-independent code, loaded at the first user
    /// address and started as a low-priority process. The boot workspace
    /// is placed at [`Cpu::default_boot_workspace`].
    pub fn await_boot_from_link(&mut self) {
        self.boot = BootState::AwaitLength;
    }

    /// Whether the part is still waiting for (some of) its boot image.
    pub fn is_booting(&self) -> bool {
        self.boot != BootState::Done
    }

    /// Whether the boot logic would consume a byte arriving on `link`
    /// right now (the early-acknowledge condition during boot).
    pub(crate) fn boot_will_consume(&self, link: usize) -> bool {
        match self.boot {
            BootState::Done => false,
            BootState::AwaitLength => true,
            BootState::Loading { link: l, .. } => l == link,
        }
    }

    /// Intercept a received byte while booting. Returns `true` when the
    /// byte was consumed by the boot logic (and should be acknowledged).
    pub(crate) fn boot_rx<W: Width>(&mut self, link: usize, byte: u8) -> bool {
        match self.boot {
            BootState::Done => false,
            BootState::AwaitLength => {
                if byte == 0 {
                    // A zero control byte is reserved (the real parts use
                    // 0/1 for peek/poke); treat as ignored.
                    return true;
                }
                self.boot = BootState::Loading {
                    link,
                    addr: self.mem.mem_start(),
                    remaining: u32::from(byte),
                };
                true
            }
            BootState::Loading {
                link: l,
                addr,
                remaining,
            } => {
                if l != link {
                    // Bytes on other links wait in their buffers until
                    // a program is running; refuse them for now.
                    return false;
                }
                if self.mem.write_byte::<W>(addr, byte).is_err() {
                    self.halted = Some(crate::error::HaltReason::MemoryFault { address: addr });
                    self.boot = BootState::Done;
                    return true;
                }
                let remaining = remaining - 1;
                if remaining == 0 {
                    self.boot = BootState::Done;
                    let entry = self.mem.mem_start();
                    let wptr = self.default_boot_workspace();
                    self.spawn(wptr, entry, Priority::Low);
                } else {
                    self.boot = BootState::Loading {
                        link,
                        addr: addr.wrapping_add(1),
                        remaining,
                    };
                }
                true
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::CpuConfig;
    use crate::instr::{encode, encode_op, Direct, Op};

    #[test]
    fn boots_from_delivered_bytes() {
        let mut cpu = Cpu::new(CpuConfig::t424());
        cpu.await_boot_from_link();
        assert!(cpu.is_booting());
        let mut image = Vec::new();
        image.extend(encode(Direct::LoadConstant, 7));
        image.extend(encode(Direct::AddConstant, 2));
        image.extend(encode_op(Op::HaltSimulation));
        assert!(image.len() < 256);
        // Feed through the link-receive path, as the wire would.
        assert!(cpu.link_rx_deliver(1, image.len() as u8));
        for b in &image {
            assert!(cpu.link_rx_deliver(1, *b));
        }
        assert!(!cpu.is_booting());
        cpu.run(10_000).expect("runs");
        assert_eq!(cpu.areg(), 9);
    }

    #[test]
    fn zero_control_byte_is_ignored() {
        let mut cpu = Cpu::new(CpuConfig::t424());
        cpu.await_boot_from_link();
        cpu.link_rx_deliver(0, 0);
        assert!(cpu.is_booting());
        cpu.link_rx_deliver(0, 2);
        cpu.link_rx_deliver(0, 0x41);
        cpu.link_rx_deliver(0, 0x42);
        assert!(!cpu.is_booting());
    }

    #[test]
    fn boot_commits_to_one_link() {
        let mut cpu = Cpu::new(CpuConfig::t424());
        cpu.await_boot_from_link();
        assert!(cpu.link_rx_deliver(2, 2), "length byte on link 2");
        // A byte on a different link is buffered, not consumed by boot.
        assert!(!cpu.link_rx_deliver(0, 0x99));
        assert!(cpu.is_booting());
        cpu.link_rx_deliver(2, 0x41);
        cpu.link_rx_deliver(2, 0x42);
        assert!(!cpu.is_booting());
        // The stray byte is waiting in link 0's buffer for the program.
        assert!(cpu.link_holds_ack(0));
    }

    #[test]
    fn non_booting_cpu_ignores_boot_path() {
        let mut cpu = Cpu::new(CpuConfig::t424());
        assert!(!cpu.is_booting());
        // Ordinary delivery goes to the link buffer.
        cpu.link_rx_deliver(0, 5);
        assert!(cpu.link_holds_ack(0));
    }
}
