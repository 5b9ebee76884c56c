//! Fixture for the `newtype` check: arithmetic on raw `.0`/`.1` tuple fields
//! outside the newtype's defining module. This file is test data, never
//! compiled.

struct UserId(u64);
struct Timestamp(i64);

fn violations(u: UserId, t: Timestamp, shards: usize, delta: i64) -> i64 {
    let shard = (u.0 as usize) % shards; //~ newtype
    let later = t.0 + delta; //~ newtype
    let scaled = 2 * t.0; //~ newtype
    later + scaled + shard as i64
}

fn negatives(u: UserId, t: Timestamp) -> (u64, i64) {
    let raw = u.0; // plain read, no arithmetic
    let pair = (t.0, u.0); // tuple construction, no arithmetic
    let cast = t.0 as i64; // no newtype arithmetic
    let float = 1.0 + 2.5; // float literals are not tuple accesses
    let _ = (pair, float);
    (raw, cast)
}
