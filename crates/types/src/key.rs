//! Canonical content keys: an exact, compact text encoding of every
//! input of a deterministic computation, for caches that must never
//! answer one computation with another's result.
//!
//! Every field is written in one fixed form and closed by `;`, so no
//! two inputs run together and two different input sequences of the
//! same schema never write the same text:
//!
//! * integers in lowercase hex without leading zeros;
//! * floats by their bit pattern ([`f64::to_bits`]), so `0.1` and the
//!   next float up, or `0.0` and `-0.0`, key apart;
//! * names and labels verbatim (static strings, which never hold `;`);
//! * enum variants by a fixed tag, `None` by `-`;
//! * a list by its length, then its items.
//!
//! Types write themselves field by field with an exhaustive
//! destructuring (no `..`) and enum matches without wildcards, so a new
//! field or variant does not compile until its key covers it.

/// Hex digits of [`KeyWriter::uint`].
const HEX: &[u8; 16] = b"0123456789abcdef";

/// Builds one canonical key (see the [module docs](self)).
#[derive(Debug, Default)]
pub struct KeyWriter {
    /// UTF-8 throughout: ASCII fields and whole `&str`s.
    bytes: Vec<u8>,
}

impl KeyWriter {
    /// An empty key with room for `bytes` of text.
    pub fn with_capacity(bytes: usize) -> KeyWriter {
        KeyWriter {
            bytes: Vec::with_capacity(bytes),
        }
    }

    /// Writes an integer in hex without leading zeros.
    pub fn uint(&mut self, mut v: u64) -> &mut KeyWriter {
        let mut field = [b';'; 17];
        let mut start = field.len() - 1;
        loop {
            start -= 1;
            field[start] = HEX[v as usize & 0xf];
            v >>= 4;
            if v == 0 {
                break;
            }
        }
        self.bytes.extend_from_slice(&field[start..]);
        self
    }

    /// Writes a float by its bit pattern.
    pub fn float(&mut self, v: f64) -> &mut KeyWriter {
        self.uint(v.to_bits())
    }

    /// Writes a flag as `1` or `0`.
    pub fn flag(&mut self, v: bool) -> &mut KeyWriter {
        self.uint(u64::from(v))
    }

    /// Writes an optional integer: `-` for `None`, else its hex.
    pub fn opt_uint(&mut self, v: Option<u64>) -> &mut KeyWriter {
        match v {
            Some(v) => self.uint(v),
            None => self.text("-"),
        }
    }

    /// Writes a name, a label or an enum tag verbatim.
    pub fn text(&mut self, s: &str) -> &mut KeyWriter {
        debug_assert!(!s.contains(';'), "key text {s:?} holds the separator");
        self.bytes.extend_from_slice(s.as_bytes());
        self.bytes.push(b';');
        self
    }

    /// The finished key.
    pub fn finish(self) -> String {
        String::from_utf8(self.bytes).expect("every field is ASCII or a whole str")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(write: impl FnOnce(&mut KeyWriter)) -> String {
        let mut k = KeyWriter::default();
        write(&mut k);
        k.finish()
    }

    fn uints(vs: &[u64]) -> String {
        key(|k| {
            vs.iter().for_each(|&v| {
                k.uint(v);
            })
        })
    }

    fn float(v: f64) -> String {
        key(|k| {
            k.float(v);
        })
    }

    #[test]
    fn integers_are_hex_without_leading_zeros() {
        for (v, text) in [
            (0, "0;"),
            (1, "1;"),
            (0xf, "f;"),
            (0x10, "10;"),
            (0xabc, "abc;"),
            (u64::MAX, "ffffffffffffffff;"),
        ] {
            assert_eq!(uints(&[v]), text, "{v:#x}");
        }
    }

    #[test]
    fn every_field_is_closed_and_typed_by_its_form() {
        let text = key(|k| {
            k.text("gups")
                .flag(true)
                .opt_uint(None)
                .opt_uint(Some(32))
                .float(0.5);
        });
        assert_eq!(text, "gups;1;-;20;3fe0000000000000;");
        // Adjacent fields cannot trade digits.
        assert_ne!(uints(&[0x1, 0x23]), uints(&[0x12, 0x3]));
        // Floats key by their bits.
        assert_ne!(float(0.0), float(-0.0));
        assert_ne!(float(0.1), float(f64::from_bits(0.1f64.to_bits() + 1)));
    }
}
