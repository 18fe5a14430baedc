//! E7 — §2.3 / Figure 1 / §2.3.1: the link protocol and its bandwidth.
//!
//! "Each byte is transmitted as a start bit followed by a one bit
//! followed by the eight data bits followed by a stop bit" (11 bit
//! times); "an acknowledge ... consists of a start bit followed by a
//! zero bit" (2 bit times). "The standard transmission rate is 10MHz,
//! providing a maximum performance of about 1 Mbyte/sec in each
//! direction on each link"; four links give "a total of 8Mbytes per
//! second of communications bandwidth" (§3.1).

use transputer_bench::{cells, table};
use transputer_link::{AckPolicy, DuplexLink, End, LinkEvent, LinkSpeed, PacketKind};

/// Stream `n` bytes and return (last delivery time, total time) in ns.
fn stream(n: u64, policy: AckPolicy) -> u64 {
    let mut link = DuplexLink::new(LinkSpeed::standard());
    let mut now = 0u64;
    let mut sent = 1u64;
    let mut delivered = 0u64;
    link.send_data_seq(End::A, 0x5A, false, now);
    loop {
        let evs = link.advance(now);
        if evs.is_empty() {
            match link.next_deadline() {
                Some(d) => {
                    now = d;
                    continue;
                }
                None => break,
            }
        }
        for ev in evs {
            match ev {
                LinkEvent::DataStarted { to: End::B } if policy == AckPolicy::Early => {
                    link.send_ack_seq(End::B, false, now);
                }
                LinkEvent::DataDelivered { to: End::B, .. } => {
                    delivered += 1;
                    if policy == AckPolicy::AfterStop {
                        link.send_ack_seq(End::B, false, now);
                    }
                }
                LinkEvent::AckDelivered { to: End::A, .. } if sent < n => {
                    link.send_data_seq(End::A, 0x5A, false, now);
                    sent += 1;
                }
                _ => {}
            }
        }
        if delivered == n && link.is_quiescent() {
            break;
        }
    }
    now
}

fn main() {
    table::heading(
        "E7",
        "link protocol timing and bandwidth",
        "§2.3, Figure 1, §2.3.1",
    );

    println!("packet formats (Figure 1):");
    table::header(&["packet", "bits (paper)", "bits", "wire pattern"]);
    let data = PacketKind::Data(0xA5);
    let ack = PacketKind::Ack;
    let fmt = |bits: &[bool]| {
        bits.iter()
            .map(|b| if *b { '1' } else { '0' })
            .collect::<String>()
    };
    table::row(cells!["data", 11, data.bits(), fmt(&data.wire_bits())]);
    table::row(cells!["acknowledge", 2, ack.bits(), fmt(&ack.wire_bits())]);
    let ok_fmt = data.bits() == 11 && ack.bits() == 2;

    let n = 10_000u64;
    let t_early = stream(n, AckPolicy::Early);
    let t_late = stream(n, AckPolicy::AfterStop);
    let bw_early = n as f64 / (t_early as f64 / 1e9) / 1e6;
    let bw_late = n as f64 / (t_late as f64 / 1e9) / 1e6;

    println!("\nstreaming {n} bytes at 10 MHz:");
    table::header(&["acknowledge policy", "time", "bandwidth", "paper"]);
    table::row(cells![
        "early (as reception starts)",
        table::ms(t_early),
        format!("{bw_early:.3} MB/s"),
        "\"about 1 Mbyte/sec\", continuous"
    ]);
    table::row(cells![
        "after stop bit (ablation)",
        table::ms(t_late),
        format!("{bw_late:.3} MB/s"),
        "—"
    ]);
    println!();
    println!(
        "early acknowledge lets transmission run continuously: 11 bit-times/byte \
         = {:.3} MB/s; waiting for the stop bit costs 13 bit-times/byte.",
        LinkSpeed::standard().streaming_bandwidth_bytes_per_sec() / 1e6
    );
    println!(
        "a link is bidirectional ({:.2} MB/s both ways), and the T424 has four:",
        2.0 * bw_early
    );
    println!(
        "total communications bandwidth = 4 × 2 × {bw_early:.3} MB/s = {:.1} MB/s (paper: \"a total of 8Mbytes per second\")",
        8.0 * bw_early
    );

    let ok_bw = bw_early > 0.85 && bw_early < 1.0 && bw_late < bw_early;
    table::verdict(
        ok_fmt && ok_bw,
        "packet sizes match Figure 1; early-ack streaming reaches ~0.9 MB/s (\"about 1 Mbyte/sec\")",
    );
}
