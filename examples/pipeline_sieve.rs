//! A classic occam idiom on real links: a prime sieve as a pipeline of
//! filter processes, one per transputer, connected by the serial links
//! of §2.3. Each stage holds one prime and forwards non-multiples.
//!
//! ```sh
//! cargo run --release --example pipeline_sieve
//! ```

use occam::places;
use transputer::WordLength;
use transputer_net::topology::{PORT_NEXT, PORT_PREV};
use transputer_net::{NetworkBuilder, NetworkConfig};

const STAGES: usize = 6;
const CANDIDATES: i64 = 30;

/// The generator: counts 2..CANDIDATES into the pipeline, then poison.
fn generator_source() -> String {
    format!(
        "CHAN out:\n\
         PLACE out AT {out}:\n\
         SEQ\n\
         \x20 SEQ n = [2 FOR {count}]\n\
         \x20\x20\x20 out ! n\n\
         \x20 out ! -1\n",
        out = places::link_out(PORT_NEXT as u32),
        count = CANDIDATES - 1,
    )
}

/// A filter stage: the first number it sees is its prime; it then drops
/// multiples and forwards everything else.
fn stage_source() -> String {
    format!(
        "VAR prime:\n\
         CHAN in, out:\n\
         PLACE in AT {inp}:\n\
         PLACE out AT {out}:\n\
         VAR going, n:\n\
         SEQ\n\
         \x20 in ? prime\n\
         \x20 going := prime <> -1\n\
         \x20 IF\n\
         \x20\x20\x20 going\n\
         \x20\x20\x20\x20\x20 SKIP\n\
         \x20\x20\x20 TRUE\n\
         \x20\x20\x20\x20\x20 out ! -1\n\
         \x20 WHILE going\n\
         \x20\x20\x20 SEQ\n\
         \x20\x20\x20\x20\x20 in ? n\n\
         \x20\x20\x20\x20\x20 IF\n\
         \x20\x20\x20\x20\x20\x20\x20 n = -1\n\
         \x20\x20\x20\x20\x20\x20\x20\x20\x20 SEQ\n\
         \x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20 out ! -1\n\
         \x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20 going := FALSE\n\
         \x20\x20\x20\x20\x20\x20\x20 (n \\ prime) <> 0\n\
         \x20\x20\x20\x20\x20\x20\x20\x20\x20 out ! n\n\
         \x20\x20\x20\x20\x20\x20\x20 TRUE\n\
         \x20\x20\x20\x20\x20\x20\x20\x20\x20 SKIP\n",
        inp = places::link_in(PORT_PREV as u32),
        out = places::link_out(PORT_NEXT as u32),
    )
}

/// The sink collects whatever leaks past the last stage.
fn sink_source() -> String {
    format!(
        "VAR rest[{cap}], count:\n\
         CHAN in:\n\
         PLACE in AT {inp}:\n\
         VAR going, n:\n\
         SEQ\n\
         \x20 count := 0\n\
         \x20 going := TRUE\n\
         \x20 WHILE going\n\
         \x20\x20\x20 SEQ\n\
         \x20\x20\x20\x20\x20 in ? n\n\
         \x20\x20\x20\x20\x20 IF\n\
         \x20\x20\x20\x20\x20\x20\x20 n = -1\n\
         \x20\x20\x20\x20\x20\x20\x20\x20\x20 going := FALSE\n\
         \x20\x20\x20\x20\x20\x20\x20 TRUE\n\
         \x20\x20\x20\x20\x20\x20\x20\x20\x20 SEQ\n\
         \x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20 rest[count] := n\n\
         \x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20 count := count + 1\n",
        cap = CANDIDATES,
        inp = places::link_in(PORT_PREV as u32),
    )
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // generator + STAGES filters + sink, in a chain.
    let mut b = NetworkBuilder::new(NetworkConfig::default());
    let nodes: Vec<_> = (0..STAGES + 2).map(|_| b.add_node()).collect();
    for w in nodes.windows(2) {
        b.connect((w[0], PORT_NEXT), (w[1], PORT_PREV));
    }
    let mut net = b.build();

    let word = WordLength::Bits32;
    let gen_prog = occam::compile(&generator_source())?;
    gen_prog.load(net.node_mut(nodes[0]))?;
    let stage_prog = occam::compile(&stage_source())?;
    let mut stage_wptrs = Vec::new();
    for &n in &nodes[1..=STAGES] {
        stage_wptrs.push(stage_prog.load(net.node_mut(n))?);
    }
    let sink_prog = occam::compile(&sink_source())?;
    let sink_wptr = sink_prog.load(net.node_mut(nodes[STAGES + 1]))?;

    net.run_until_all_halted(10_000_000_000)?;

    // Each stage holds one prime.
    let mut primes = Vec::new();
    for (i, &n) in nodes[1..=STAGES].iter().enumerate() {
        let addr = stage_prog
            .global_addr(word, stage_wptrs[i], "prime")
            .expect("prime global");
        primes.push(net.node(n).inspect_word(addr)? as i64);
    }
    let count_addr = sink_prog
        .global_addr(word, sink_wptr, "count")
        .expect("count global");
    let leftover = net.node(nodes[STAGES + 1]).inspect_word(count_addr)?;

    println!(
        "pipeline of {STAGES} filter transputers sieved 2..={CANDIDATES}: primes held per stage: {primes:?}"
    );
    let rest_addr = sink_prog
        .global_addr(word, sink_wptr, "rest")
        .expect("rest global");
    let rest: Vec<u32> = (0..leftover)
        .map(|i| {
            net.node(nodes[STAGES + 1])
                .inspect_word(word.index_word(rest_addr, i))
                .unwrap()
        })
        .collect();
    println!("{leftover} values passed the last stage (composites of later primes + primes > stage count): {rest:?}");
    println!(
        "completed in {:.3} ms simulated time",
        net.time_ns() as f64 / 1e6
    );
    assert_eq!(primes, vec![2, 3, 5, 7, 11, 13]);
    Ok(())
}
