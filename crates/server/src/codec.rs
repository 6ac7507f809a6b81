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
//! **Borrowed bytes.**  The frame code never encodes or decodes item by
//! item when it does not have to.  It sends a payload with
//! [`Wire::wire_bytes`] and receives one with [`Wire::read_payload`].  For
//! the numeric types — `u8`…`u128`, `i8`…`i128`, `f32`, `f64`, and
//! `usize`/`isize` on 64-bit hosts — on a little-endian host the in-memory
//! layout *is* the wire layout.  There `wire_bytes` borrows the slice's
//! own bytes, and `read_payload` reads the socket straight into the
//! `Vec<T>` it returns: one allocation, no body buffer, no per-item pass.
//! On a big-endian host, and for every other type (`bool` and `char`,
//! whose bit patterns are not all valid, `String`, and custom types), the
//! provided defaults run [`Wire::encode_into`] and [`Wire::decode`]
//! instead, so a custom type implements those two methods and gets the
//! validating per-item path.  Either way the bytes on the socket are the
//! same.
//!
//! ```
//! use cgp_server::Wire;
//!
//! let mut bytes = Vec::new();
//! u64::encode_into(&[1, 2, 3], &mut bytes);
//! assert_eq!(bytes.len(), 24);
//! assert_eq!(u64::decode(&bytes).unwrap(), vec![1, 2, 3]);
//! // The borrowed view carries exactly the encoded bytes.
//! assert_eq!(&*u64::wire_bytes(&[1, 2, 3]), &bytes[..]);
//! ```

use std::borrow::Cow;
use std::fmt;
use std::io::{self, Read};

/// A payload item that can cross the socket.
///
/// Implementations must round-trip: `decode(encode_into(items)) == items`
/// for every slice, and `decode` must reject malformed input with an error
/// instead of panicking (frames arrive from another process).
///
/// The two provided methods are what the frame code calls.  Their
/// defaults go through `encode_into` and `decode`; the numeric types
/// override them on little-endian hosts to skip the byte buffer (see the
/// [module docs](self)).  An override must produce exactly the bytes and
/// values of the defaults.
pub trait Wire: Sized + Send + 'static {
    /// Appends the serialized form of `items` to `out`.
    fn encode_into(items: &[Self], out: &mut Vec<u8>);

    /// Parses a payload serialized by [`Wire::encode_into`].
    fn decode(bytes: &[u8]) -> Result<Vec<Self>, WireError>;

    /// The serialized form of `items`: borrowed from the slice where the
    /// in-memory layout is the wire layout, encoded into a fresh buffer
    /// otherwise (the default).
    fn wire_bytes(items: &[Self]) -> Cow<'_, [u8]> {
        encoded(items)
    }

    /// Reads a payload of exactly `len` bytes from `reader` and parses it.
    ///
    /// The outer error is the reader's (the stream broke or ended inside
    /// the payload).  The inner one is a malformed payload.  In that case
    /// all `len` bytes have still been consumed, so the stream stays in
    /// step with its frames.  The default reads the bytes into a buffer
    /// and calls [`Wire::decode`].
    fn read_payload<R: Read>(
        reader: &mut R,
        len: usize,
    ) -> io::Result<Result<Vec<Self>, WireError>> {
        read_and_decode(reader, len)
    }
}

/// [`Wire::wire_bytes`] through [`Wire::encode_into`].
fn encoded<T: Wire>(items: &[T]) -> Cow<'_, [u8]> {
    let mut out = Vec::new();
    T::encode_into(items, &mut out);
    Cow::Owned(out)
}

/// [`Wire::read_payload`] through a byte buffer and [`Wire::decode`].
fn read_and_decode<T: Wire, R: Read>(
    reader: &mut R,
    len: usize,
) -> io::Result<Result<Vec<T>, WireError>> {
    let mut bytes = vec![0u8; len];
    reader.read_exact(&mut bytes)?;
    Ok(T::decode(&bytes))
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

    fn not_whole(len: usize, width: usize) -> Self {
        WireError::new(format!(
            "{len} bytes is not a whole number of {width}-byte items"
        ))
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wire decode failed: {}", self.message)
    }
}

impl std::error::Error for WireError {}

/// The borrowed-bytes overrides of [`Wire::wire_bytes`] and
/// [`Wire::read_payload`] for a numeric type whose wire form is its
/// in-memory form whenever `$direct` holds; otherwise they fall back to
/// the per-item path.
macro_rules! direct_payload {
    ($direct:expr) => {
        fn wire_bytes(items: &[Self]) -> Cow<'_, [u8]> {
            if !$direct {
                return encoded(items);
            }
            // SAFETY: `Self` is a primitive number: no padding, every byte
            // of `items` is initialized, and `u8` has alignment 1, so the
            // slice's memory is a valid `[u8]` of `size_of_val(items)`
            // bytes borrowed for the slice's lifetime.  `$direct` holds,
            // so that memory is each item's `to_le_bytes()` in order.
            let bytes = unsafe {
                std::slice::from_raw_parts(
                    items.as_ptr().cast::<u8>(),
                    std::mem::size_of_val(items),
                )
            };
            Cow::Borrowed(bytes)
        }

        fn read_payload<R: Read>(
            reader: &mut R,
            len: usize,
        ) -> io::Result<Result<Vec<Self>, WireError>> {
            let width = std::mem::size_of::<Self>();
            if !$direct {
                return read_and_decode(reader, len);
            }
            if !len.is_multiple_of(width) {
                // Consume the payload anyway: the next frame starts after it.
                crate::protocol::skip_bytes(reader, len)?;
                return Ok(Err(WireError::not_whole(len, width)));
            }
            let mut items: Vec<Self> = vec![Default::default(); len / width];
            // SAFETY: `items` owns `len` initialized bytes (zeroed above),
            // `u8` has alignment 1, and the borrow ends before `items` is
            // used again.  Every bit pattern is a valid `Self`, so any
            // bytes the reader writes leave valid items, and since
            // `$direct` holds they are the items whose `to_le_bytes()` the
            // bytes are.
            let bytes =
                unsafe { std::slice::from_raw_parts_mut(items.as_mut_ptr().cast::<u8>(), len) };
            reader.read_exact(bytes)?;
            Ok(Ok(items))
        }
    };
}

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
                    return Err(WireError::not_whole(bytes.len(), WIDTH));
                }
                Ok(bytes
                    .chunks_exact(WIDTH)
                    .map(|chunk| <$ty>::from_le_bytes(chunk.try_into().expect("exact chunk")))
                    .collect())
            }

            direct_payload!(cfg!(target_endian = "little"));
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

    direct_payload!(cfg!(all(
        target_endian = "little",
        target_pointer_width = "64"
    )));
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

    direct_payload!(cfg!(all(
        target_endian = "little",
        target_pointer_width = "64"
    )));
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

    /// The streamed paths against the per-item ones on `bytes`:
    /// [`Wire::read_payload`] consumes exactly the payload and reaches
    /// [`Wire::decode`]'s verdict, with the same items (compared through
    /// [`Wire::encode_into`], which for floats keeps every bit), and
    /// [`Wire::wire_bytes`] of those items is `bytes` again.
    fn streamed_matches_per_item<T: Wire>(bytes: &[u8]) {
        let name = std::any::type_name::<T>();
        let mut stream = bytes.to_vec();
        stream.extend_from_slice(b"next frame");
        let mut reader = &stream[..];
        let streamed = T::read_payload(&mut reader, bytes.len()).expect("the payload is there");
        assert_eq!(
            reader, b"next frame",
            "{name}: consumed exactly the payload"
        );
        match (streamed, T::decode(bytes)) {
            (Ok(streamed), Ok(decoded)) => {
                let mut reencoded = Vec::new();
                T::encode_into(&streamed, &mut reencoded);
                assert_eq!(reencoded, bytes, "{name}: streamed items");
                let mut reencoded = Vec::new();
                T::encode_into(&decoded, &mut reencoded);
                assert_eq!(reencoded, bytes, "{name}: decoded items");
                assert_eq!(&*T::wire_bytes(&streamed), bytes, "{name}: borrowed bytes");
            }
            (Err(streamed), Err(decoded)) => assert_eq!(streamed, decoded, "{name}"),
            (streamed, decoded) => panic!(
                "{name}: streamed ok = {}, decoded ok = {}",
                streamed.is_ok(),
                decoded.is_ok()
            ),
        }
        // A reader that ends inside the payload is an I/O error, whatever
        // the bytes.
        let err = T::read_payload(&mut &bytes[..], bytes.len() + 1)
            .map(|_| ())
            .expect_err("the reader ends one byte short");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{name}");
    }

    /// Every codec's streamed paths against its per-item ones.
    fn every_codec_matches_per_item(bytes: &[u8]) {
        streamed_matches_per_item::<u8>(bytes);
        streamed_matches_per_item::<u16>(bytes);
        streamed_matches_per_item::<u32>(bytes);
        streamed_matches_per_item::<u64>(bytes);
        streamed_matches_per_item::<u128>(bytes);
        streamed_matches_per_item::<i8>(bytes);
        streamed_matches_per_item::<i16>(bytes);
        streamed_matches_per_item::<i32>(bytes);
        streamed_matches_per_item::<i64>(bytes);
        streamed_matches_per_item::<i128>(bytes);
        streamed_matches_per_item::<f32>(bytes);
        streamed_matches_per_item::<f64>(bytes);
        streamed_matches_per_item::<usize>(bytes);
        streamed_matches_per_item::<isize>(bytes);
        streamed_matches_per_item::<bool>(bytes);
        streamed_matches_per_item::<char>(bytes);
        streamed_matches_per_item::<String>(bytes);
    }

    #[test]
    fn streamed_paths_match_the_per_item_paths_at_every_length() {
        // Every length up to two of the widest items, so each width sees
        // whole payloads and every ragged remainder.
        for len in 0..=33u8 {
            let bytes: Vec<u8> = (0..len).map(|i| i.wrapping_mul(37) ^ 0xA5).collect();
            every_codec_matches_per_item(&bytes);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        #[test]
        fn streamed_paths_match_the_per_item_paths_on_random_bytes(
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..80),
        ) {
            every_codec_matches_per_item(&bytes);
        }
    }

    #[test]
    fn numeric_payloads_are_borrowed_on_little_endian_hosts() {
        let items: Vec<u64> = (0..100).collect();
        let bytes = u64::wire_bytes(&items);
        assert_eq!(
            matches!(bytes, Cow::Borrowed(_)),
            cfg!(target_endian = "little")
        );
        assert!(matches!(bool::wire_bytes(&[true]), Cow::Owned(_)));
        assert!(matches!(String::wire_bytes(&["x".into()]), Cow::Owned(_)));
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
        // The provided methods take the per-item path.
        let items = [Meters(7), Meters(u64::MAX)];
        let bytes = Meters::wire_bytes(&items).into_owned();
        assert_eq!(bytes, u64::wire_bytes(&[7, u64::MAX]).into_owned());
        let read = Meters::read_payload(&mut &bytes[..], bytes.len()).unwrap();
        assert_eq!(read.unwrap(), items);
        assert!(Meters::read_payload(&mut &bytes[..], 3).unwrap().is_err());
    }
}
