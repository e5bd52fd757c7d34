//! Standard-alphabet base64 (RFC 4648) encode/decode, hand-rolled because
//! the workspace builds hermetically. Used for the `image_b64` request
//! field: 3072 little-endian `f32`s encode denser than a JSON float array,
//! and bit-exactly. Both body forms parse in time linear in their length:
//! the JSON parser copies the base64 string in bulk, and decoding it
//! here costs a table lookup per character instead of a float parse per
//! value.

const ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Encodes bytes as padded base64.
pub fn encode(data: &[u8]) -> String {
    let mut out = String::with_capacity(data.len().div_ceil(3) * 4);
    for chunk in data.chunks(3) {
        let b = [
            chunk[0],
            chunk.get(1).copied().unwrap_or(0),
            chunk.get(2).copied().unwrap_or(0),
        ];
        let n = (u32::from(b[0]) << 16) | (u32::from(b[1]) << 8) | u32::from(b[2]);
        out.push(ALPHABET[(n >> 18) as usize & 63] as char);
        out.push(ALPHABET[(n >> 12) as usize & 63] as char);
        out.push(if chunk.len() > 1 {
            ALPHABET[(n >> 6) as usize & 63] as char
        } else {
            '='
        });
        out.push(if chunk.len() > 2 {
            ALPHABET[n as usize & 63] as char
        } else {
            '='
        });
    }
    out
}

fn decode_char(c: u8) -> Option<u32> {
    match c {
        b'A'..=b'Z' => Some(u32::from(c - b'A')),
        b'a'..=b'z' => Some(u32::from(c - b'a') + 26),
        b'0'..=b'9' => Some(u32::from(c - b'0') + 52),
        b'+' => Some(62),
        b'/' => Some(63),
        _ => None,
    }
}

/// Decodes padded base64 (surrounding ASCII whitespace is ignored).
///
/// # Errors
///
/// Returns a description of the offending character or length.
pub fn decode(text: &str) -> Result<Vec<u8>, String> {
    let trimmed: Vec<u8> = text.bytes().filter(|b| !b.is_ascii_whitespace()).collect();
    if !trimmed.len().is_multiple_of(4) {
        return Err(format!(
            "base64 length {} is not a multiple of 4",
            trimmed.len()
        ));
    }
    let mut out = Vec::with_capacity(trimmed.len() / 4 * 3);
    for (i, quad) in trimmed.chunks(4).enumerate() {
        let last = i == trimmed.len() / 4 - 1;
        let pads = quad.iter().rev().take_while(|&&c| c == b'=').count();
        if pads > 2 || (pads > 0 && !last) {
            return Err("misplaced '=' padding".into());
        }
        let mut n = 0u32;
        for &c in &quad[..4 - pads] {
            n = (n << 6)
                | decode_char(c)
                    .ok_or_else(|| format!("invalid base64 character {:?}", c as char))?;
        }
        n <<= 6 * pads as u32;
        out.push((n >> 16) as u8);
        if pads < 2 {
            out.push((n >> 8) as u8);
        }
        if pads < 1 {
            out.push(n as u8);
        }
    }
    Ok(out)
}

/// Encodes a slice of `f32` as base64 of its little-endian bytes.
pub fn encode_f32(values: &[f32]) -> String {
    let mut bytes = Vec::with_capacity(4 * values.len());
    for v in values {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    encode(&bytes)
}

/// Decodes base64 little-endian bytes back into `f32`s.
///
/// # Errors
///
/// Returns a description for bad base64 or a length not divisible by 4.
pub fn decode_f32(text: &str) -> Result<Vec<f32>, String> {
    let bytes = decode(text)?;
    if bytes.len() % 4 != 0 {
        return Err(format!(
            "decoded {} bytes, not a whole number of f32s",
            bytes.len()
        ));
    }
    Ok(bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes(c.try_into().expect("chunk of 4")))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc4648_vectors() {
        for (plain, enc) in [
            ("", ""),
            ("f", "Zg=="),
            ("fo", "Zm8="),
            ("foo", "Zm9v"),
            ("foob", "Zm9vYg=="),
            ("fooba", "Zm9vYmE="),
            ("foobar", "Zm9vYmFy"),
        ] {
            assert_eq!(encode(plain.as_bytes()), enc);
            assert_eq!(decode(enc).unwrap(), plain.as_bytes());
        }
    }

    #[test]
    fn f32_round_trip() {
        let values = [0.0f32, -1.5, 3.25e7, f32::MIN_POSITIVE];
        let enc = encode_f32(&values);
        assert_eq!(decode_f32(&enc).unwrap(), values);
    }

    #[test]
    fn rejects_garbage() {
        assert!(decode("abc").is_err(), "bad length");
        assert!(decode("ab!=").is_err(), "bad character");
        assert!(decode("=abc").is_err(), "misplaced padding");
        assert!(decode_f32("Zg==").is_err(), "1 byte is not an f32");
    }
}
