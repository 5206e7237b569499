//! Length-prefixed, correlated wire framing.
//!
//! Every frame, in both directions, is
//!
//! ```text
//! [len u32 LE][corr u64 LE][payload: len bytes]
//! ```
//!
//! — the page codec's self-framing layout lifted onto a byte stream,
//! plus a correlation id that matches a response to the request it
//! answers, so one connection can pipeline many requests. Clients number
//! their requests from 1 and the server echoes each id on the response;
//! id `0` marks a connection-level frame that answers no request (a
//! `Busy` refusal at accept, or the error reported before a reader gives
//! up on a desynchronized stream). Frames larger than [`MAX_FRAME`] are
//! rejected on both sides: on send as an API misuse, on receive as
//! corruption (a desynchronized or malicious peer), so a bad length
//! prefix can never make a reader allocate gigabytes.

use pangea_common::{PangeaError, Result};
use std::io::{Read, Write};

/// Upper bound on one frame's payload. Generous relative to page sizes
/// (the largest legitimate message is a page fetch or an append batch).
pub const MAX_FRAME: usize = 64 * 1024 * 1024;

/// Bytes of framing overhead per frame: the length prefix plus the
/// correlation id.
pub const FRAME_OVERHEAD: usize = 4 + 8;

/// Writes one frame carrying correlation id `corr` and flushes.
pub fn write_frame(w: &mut impl Write, corr: u64, payload: &[u8]) -> Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(PangeaError::usage(format!(
            "frame of {} B exceeds the {MAX_FRAME} B limit",
            payload.len()
        )));
    }
    let mut header = [0u8; FRAME_OVERHEAD];
    header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[4..].copy_from_slice(&corr.to_le_bytes());
    w.write_all(&header)?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

/// Reads one frame as `(correlation, payload)`.
///
/// Returns `Ok(None)` on a clean end-of-stream (EOF exactly at a frame
/// boundary — how a peer hangs up). EOF anywhere inside a frame, or a
/// length prefix above [`MAX_FRAME`], is corruption.
pub fn read_frame(r: &mut impl Read) -> Result<Option<(u64, Vec<u8>)>> {
    let mut header = [0u8; FRAME_OVERHEAD];
    let mut filled = 0;
    while filled < header.len() {
        match r.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(PangeaError::Corruption(format!(
                    "stream ended {filled} B into a frame header"
                )))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    let mut len = [0u8; 4];
    len.copy_from_slice(&header[..4]);
    let len = u32::from_le_bytes(len) as usize;
    let mut corr = [0u8; 8];
    corr.copy_from_slice(&header[4..]);
    if len > MAX_FRAME {
        return Err(PangeaError::Corruption(format!(
            "frame length {len} B exceeds the {MAX_FRAME} B limit"
        )));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            PangeaError::Corruption(format!("stream ended inside a frame expecting {len} B"))
        } else {
            PangeaError::from(e)
        }
    })?;
    Ok(Some((u64::from_le_bytes(corr), payload)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn roundtrip_various_sizes_and_ids() {
        for (len, corr) in [
            (0usize, 0u64),
            (1, 1),
            (7, 0xDEAD_BEEF),
            (4096, 2),
            (100_000, u64::MAX),
        ] {
            let payload: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            let mut buf = Vec::new();
            write_frame(&mut buf, corr, &payload).unwrap();
            assert_eq!(buf.len(), FRAME_OVERHEAD + len);
            let got = read_frame(&mut Cursor::new(&buf)).unwrap().unwrap();
            assert_eq!(got, (corr, payload));
        }
    }

    #[test]
    fn clean_eof_is_none() {
        assert!(read_frame(&mut Cursor::new(&[])).unwrap().is_none());
    }

    #[test]
    fn truncated_header_is_corruption() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 42, b"x").unwrap();
        for cut in 1..FRAME_OVERHEAD {
            assert!(matches!(
                read_frame(&mut Cursor::new(&buf[..cut])),
                Err(PangeaError::Corruption(_))
            ));
        }
    }

    #[test]
    fn truncated_payload_is_corruption() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 1, b"full payload").unwrap();
        buf.truncate(buf.len() - 3);
        assert!(matches!(
            read_frame(&mut Cursor::new(&buf)),
            Err(PangeaError::Corruption(_))
        ));
    }

    #[test]
    fn oversized_length_prefix_rejected_without_allocation() {
        let mut buf = (u32::MAX).to_le_bytes().to_vec();
        buf.extend_from_slice(&[0u8; 8]);
        buf.extend_from_slice(b"junk");
        assert!(matches!(
            read_frame(&mut Cursor::new(&buf)),
            Err(PangeaError::Corruption(_))
        ));
    }

    #[test]
    fn oversized_send_rejected() {
        // Zero-filled huge payload; write must refuse before any I/O.
        let payload = vec![0u8; MAX_FRAME + 1];
        let mut out = Vec::new();
        assert!(matches!(
            write_frame(&mut out, 1, &payload),
            Err(PangeaError::InvalidUsage(_))
        ));
        assert!(out.is_empty());
    }

    #[test]
    fn back_to_back_frames_parse_in_order() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 3, b"one").unwrap();
        write_frame(&mut buf, 0, b"two").unwrap();
        write_frame(&mut buf, 9, b"").unwrap();
        let mut cur = Cursor::new(&buf);
        assert_eq!(read_frame(&mut cur).unwrap().unwrap(), (3, b"one".to_vec()));
        assert_eq!(read_frame(&mut cur).unwrap().unwrap(), (0, b"two".to_vec()));
        assert_eq!(read_frame(&mut cur).unwrap().unwrap(), (9, Vec::new()));
        assert!(read_frame(&mut cur).unwrap().is_none());
    }
}
