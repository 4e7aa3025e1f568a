//! Ad-hoc profiling: `cargo run --release -p mmio-cert --example profile_verify <file>`
//!
//! Times the three stages of `verify_json` separately: the validating scan,
//! the decode from slices of the text, and the verification proper.
use std::time::Instant;

fn main() {
    let path = std::env::args()
        .nth(1)
        .expect("usage: profile_verify <cert.json>");
    let text = std::fs::read_to_string(&path).unwrap();
    let t = Instant::now();
    let doc = serde_json::Raw::parse(&text).unwrap();
    println!("validate: {:?}", t.elapsed());
    let t = Instant::now();
    let cert = mmio_cert::Certificate::from_fields(&mut doc.fields().unwrap()).unwrap();
    println!("decode: {:?}", t.elapsed());
    let t = Instant::now();
    let v = mmio_cert::verify(&cert);
    println!("verify: {:?} accepted={}", t.elapsed(), v.accepted);
}
