//! Payload codecs: how `T` items cross the socket.
//!
//! There is no serde here (all dependencies are vendored shims), so the
//! contract is a deliberately small trait, [`Wire`], with little-endian
//! fixed-width implementations for the primitive types plus
//! length-prefixed `String`.  [`crate::WireServer`] and [`crate::Client`]
//! take it as an ordinary `T: Wire` bound: serving a payload type without a
//! codec is a compile error, and a custom type opts in by implementing the
//! trait.
//!
//! ```
//! use cgp_server::Wire;
//!
//! let mut bytes = Vec::new();
//! u64::encode_into(&[1, 2, 3], &mut bytes);
//! assert_eq!(bytes.len(), 24);
//! assert_eq!(u64::decode(&bytes).unwrap(), vec![1, 2, 3]);
//! ```

use std::fmt;

/// A payload item that can cross the socket.
///
/// Implementations must round-trip: `decode(encode_into(items)) == items`
/// for every slice, and `decode` must reject malformed input with an error
/// instead of panicking (frames arrive from another process).
pub trait Wire: Sized + Send + 'static {
    /// Appends the serialized form of `items` to `out`.
    fn encode_into(items: &[Self], out: &mut Vec<u8>);

    /// Parses a payload serialized by [`Wire::encode_into`].
    fn decode(bytes: &[u8]) -> Result<Vec<Self>, WireError>;
}

/// A payload failed to parse (truncated frame, invalid encoding).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// What was wrong with the bytes.
    pub message: String,
}

impl WireError {
    fn new(message: impl Into<String>) -> Self {
        WireError {
            message: message.into(),
        }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wire decode failed: {}", self.message)
    }
}

impl std::error::Error for WireError {}

macro_rules! fixed_width_wire {
    ($($ty:ty),*) => {
        $(impl Wire for $ty {
            fn encode_into(items: &[Self], out: &mut Vec<u8>) {
                out.reserve(items.len() * std::mem::size_of::<$ty>());
                for item in items {
                    out.extend_from_slice(&item.to_le_bytes());
                }
            }

            fn decode(bytes: &[u8]) -> Result<Vec<Self>, WireError> {
                const WIDTH: usize = std::mem::size_of::<$ty>();
                if !bytes.len().is_multiple_of(WIDTH) {
                    return Err(WireError::new(format!(
                        "{} bytes is not a whole number of {}-byte items",
                        bytes.len(),
                        WIDTH
                    )));
                }
                Ok(bytes
                    .chunks_exact(WIDTH)
                    .map(|chunk| <$ty>::from_le_bytes(chunk.try_into().expect("exact chunk")))
                    .collect())
            }
        })*
    };
}

fixed_width_wire!(u8, u16, u32, u64, u128, i8, i16, i32, i64, i128, f32, f64);

/// `usize`/`isize` travel as 64-bit so frames are portable between
/// processes of (hypothetically) different pointer widths.
impl Wire for usize {
    fn encode_into(items: &[Self], out: &mut Vec<u8>) {
        out.reserve(items.len() * 8);
        for item in items {
            out.extend_from_slice(&(*item as u64).to_le_bytes());
        }
    }

    fn decode(bytes: &[u8]) -> Result<Vec<Self>, WireError> {
        u64::decode(bytes)?
            .into_iter()
            .map(|x| usize::try_from(x).map_err(|_| WireError::new("usize overflow")))
            .collect()
    }
}

impl Wire for isize {
    fn encode_into(items: &[Self], out: &mut Vec<u8>) {
        out.reserve(items.len() * 8);
        for item in items {
            out.extend_from_slice(&(*item as i64).to_le_bytes());
        }
    }

    fn decode(bytes: &[u8]) -> Result<Vec<Self>, WireError> {
        i64::decode(bytes)?
            .into_iter()
            .map(|x| isize::try_from(x).map_err(|_| WireError::new("isize overflow")))
            .collect()
    }
}

impl Wire for bool {
    fn encode_into(items: &[Self], out: &mut Vec<u8>) {
        out.extend(items.iter().map(|&b| b as u8));
    }

    fn decode(bytes: &[u8]) -> Result<Vec<Self>, WireError> {
        bytes
            .iter()
            .map(|&b| match b {
                0 => Ok(false),
                1 => Ok(true),
                other => Err(WireError::new(format!("invalid bool byte {other}"))),
            })
            .collect()
    }
}

impl Wire for char {
    fn encode_into(items: &[Self], out: &mut Vec<u8>) {
        for item in items {
            out.extend_from_slice(&(*item as u32).to_le_bytes());
        }
    }

    fn decode(bytes: &[u8]) -> Result<Vec<Self>, WireError> {
        u32::decode(bytes)?
            .into_iter()
            .map(|x| char::from_u32(x).ok_or_else(|| WireError::new("invalid char scalar")))
            .collect()
    }
}

impl Wire for String {
    fn encode_into(items: &[Self], out: &mut Vec<u8>) {
        for item in items {
            out.extend_from_slice(&(item.len() as u64).to_le_bytes());
            out.extend_from_slice(item.as_bytes());
        }
    }

    fn decode(bytes: &[u8]) -> Result<Vec<Self>, WireError> {
        let mut out = Vec::new();
        let mut rest = bytes;
        while !rest.is_empty() {
            if rest.len() < 8 {
                return Err(WireError::new("truncated string length prefix"));
            }
            let (len, tail) = rest.split_at(8);
            let len = u64::from_le_bytes(len.try_into().expect("8 bytes")) as usize;
            if tail.len() < len {
                return Err(WireError::new("truncated string body"));
            }
            let (body, next) = tail.split_at(len);
            out.push(
                String::from_utf8(body.to_vec())
                    .map_err(|_| WireError::new("string body is not UTF-8"))?,
            );
            rest = next;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Wire + PartialEq + std::fmt::Debug + Clone>(items: &[T]) {
        let mut bytes = Vec::new();
        T::encode_into(items, &mut bytes);
        assert_eq!(T::decode(&bytes).unwrap(), items);
    }

    #[test]
    fn primitives_round_trip() {
        round_trip::<u64>(&[0, 1, u64::MAX]);
        round_trip::<i32>(&[-5, 0, i32::MAX]);
        round_trip::<u8>(&[0, 255]);
        round_trip::<usize>(&[0, usize::MAX]);
        round_trip::<f64>(&[0.5, -1.25]);
        round_trip::<bool>(&[true, false, true]);
        round_trip::<char>(&['a', 'ß', '🦀']);
        round_trip::<u64>(&[]);
    }

    #[test]
    fn strings_round_trip() {
        round_trip::<String>(&["".into(), "hello".into(), "ünïcode 🦀".into()]);
    }

    #[test]
    fn malformed_input_is_an_error_not_a_panic() {
        assert!(u64::decode(&[1, 2, 3]).is_err());
        assert!(bool::decode(&[2]).is_err());
        assert!(char::decode(&0xD800u32.to_le_bytes()).is_err());
        assert!(String::decode(&[9, 0, 0, 0, 0, 0, 0, 0, b'x']).is_err());
        assert!(String::decode(&[3]).is_err());
    }

    #[test]
    fn custom_types_implement_the_trait() {
        #[derive(Debug, PartialEq, Clone)]
        struct Meters(u64);
        impl Wire for Meters {
            fn encode_into(items: &[Self], out: &mut Vec<u8>) {
                for item in items {
                    out.extend_from_slice(&item.0.to_le_bytes());
                }
            }
            fn decode(bytes: &[u8]) -> Result<Vec<Self>, WireError> {
                Ok(u64::decode(bytes)?.into_iter().map(Meters).collect())
            }
        }
        round_trip(&[Meters(7), Meters(u64::MAX)]);
    }
}
