//! Determinism regression: two [`TcFilter`] runs fed the identical
//! seeded packet stream must serialize (via the canonical codec) to
//! byte-identical buffers. This is the property the determinism bans in
//! `clippy.toml` exist to protect — if a hash-ordered collection or an ambient
//! clock ever sneaks into the sampler, this test goes red first.

use millisampler::{codec, Direction, PacketMeta, RunConfig, TcFilter};
use ms_dcsim::{Ns, SimRng};

/// Runs a full sampler window over a seeded synthetic stream and returns
/// the canonical encoding of the resulting series.
fn sampled_bytes(seed: u64) -> Vec<u8> {
    let mut rng = SimRng::new(seed);
    let mut f = TcFilter::new(&RunConfig::one_ms(), 4);
    f.attach();
    f.enable();
    let n = 5_000 + rng.gen_range(5_000) as usize;
    let mut pkts: Vec<(u64, u32, bool, bool, u64)> = (0..n)
        .map(|_| {
            (
                rng.gen_range(1_900_000_000),
                64 + rng.gen_range(9000 - 64) as u32,
                rng.gen_bool(0.1),
                rng.gen_bool(0.02),
                rng.next_u64(),
            )
        })
        .collect();
    pkts.sort_by_key(|p| p.0);
    for (i, &(t, bytes, ecn, retx, flow)) in pkts.iter().enumerate() {
        let meta = PacketMeta {
            direction: if flow % 3 == 0 {
                Direction::Egress
            } else {
                Direction::Ingress
            },
            bytes,
            ecn_ce: ecn,
            retx_bit: retx,
            flow_hash: ms_sketch::mix64(flow),
        };
        f.record(i % 4, Ns(t), &meta);
    }
    codec::encode(&f.read(7).expect("run started"))
}

#[test]
fn identical_seeds_serialize_byte_identically() {
    for seed in [0xD5_0001u64, 0xD5_0002, 0xD5_0003] {
        let a = sampled_bytes(seed);
        let b = sampled_bytes(seed);
        assert_eq!(a, b, "seed {seed:#x} diverged between runs");
    }
}

#[test]
fn different_seeds_serialize_differently() {
    // Guards against the test trivially passing because the encoding
    // ignores its input.
    assert_ne!(sampled_bytes(0xD5_0001), sampled_bytes(0xD5_0002));
}

#[test]
fn encoding_is_stable_across_decode_reencode() {
    let bytes = sampled_bytes(0xD5_0004);
    let series = codec::decode(&bytes).expect("round trip");
    assert_eq!(
        codec::encode(&series),
        bytes,
        "canonical form must be a fixed point"
    );
}
