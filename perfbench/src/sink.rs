//! The dataset sink: an `io::Write` that keeps a digest and a byte count
//! of everything written and stores nothing. The digest depends only on
//! the byte stream, never on how the writer split it into `write` calls,
//! so the batched tail and the serial oracle can be compared by digest.
//! A campaign writes a few hundred MB, so the digest is a word-at-a-time
//! multiply-rotate rather than std's SipHash, to keep the sink's own
//! cost out of the writer's measured time.

use std::io;

const K0: u64 = 0x9E37_79B9_7F4A_7C15;
const K1: u64 = 0xC2B2_AE3D_27D4_EB4F;

/// Streaming 64-bit digest over 8-byte words; a partial word waits in
/// `tail` until the next write completes it.
#[derive(Clone, Debug, Default)]
pub struct HashSink {
    state: u64,
    tail: [u8; 8],
    tail_len: usize,
    bytes: u64,
}

impl HashSink {
    /// An empty sink.
    pub fn new() -> Self {
        HashSink {
            state: K0,
            ..HashSink::default()
        }
    }

    fn mix(&mut self, word: u64) {
        self.state = (self.state ^ word).wrapping_mul(K1).rotate_left(29);
    }

    /// Digest of every byte written so far, with the length folded in.
    pub fn digest(&self) -> u64 {
        let mut last = [0u8; 8];
        last[..self.tail_len].copy_from_slice(&self.tail[..self.tail_len]);
        let mut h = (self.state ^ u64::from_le_bytes(last)).wrapping_mul(K1);
        h ^= self.bytes.wrapping_mul(K0);
        h ^= h >> 31;
        h.wrapping_mul(K0) ^ (h >> 29)
    }
}

impl io::Write for HashSink {
    fn write(&mut self, mut buf: &[u8]) -> io::Result<usize> {
        let n = buf.len();
        self.bytes += n as u64;
        if self.tail_len > 0 {
            let take = (8 - self.tail_len).min(buf.len());
            self.tail[self.tail_len..self.tail_len + take].copy_from_slice(&buf[..take]);
            self.tail_len += take;
            buf = &buf[take..];
            if self.tail_len < 8 {
                return Ok(n);
            }
            self.mix(u64::from_le_bytes(self.tail));
            self.tail_len = 0;
        }
        let mut words = buf.chunks_exact(8);
        for w in &mut words {
            let mut b = [0u8; 8];
            b.copy_from_slice(w);
            self.mix(u64::from_le_bytes(b));
        }
        let rest = words.remainder();
        self.tail[..rest.len()].copy_from_slice(rest);
        self.tail_len = rest.len();
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    #[test]
    fn digest_ignores_write_boundaries() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i * 7 + 3) as u8).collect();
        let mut whole = HashSink::new();
        whole.write_all(&data).unwrap();
        for step in [1usize, 3, 7, 8, 13, 999] {
            let mut parts = HashSink::new();
            for c in data.chunks(step) {
                parts.write_all(c).unwrap();
            }
            assert_eq!(whole.digest(), parts.digest(), "step {step}");
        }
    }

    #[test]
    fn digest_sees_every_byte() {
        let mut a = HashSink::new();
        a.write_all(b"<dialog ts=\"1\"/>").unwrap();
        let mut b = HashSink::new();
        b.write_all(b"<dialog ts=\"2\"/>").unwrap();
        assert_ne!(a.digest(), b.digest());
        let mut c = HashSink::new();
        c.write_all(b"<dialog ts=\"1\"/>\0").unwrap();
        assert_ne!(a.digest(), c.digest(), "length must count");
    }
}
