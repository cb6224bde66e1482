//! Bounded request-line reading for the daemon's transports.
//!
//! `BufRead::lines` buffers a whole line before returning it, so a client
//! that never sends `\n` grows the daemon's memory without limit.
//! [`read_request_line`] keeps at most [`MAX_LINE_BYTES`] of a line. A
//! longer line is consumed through its newline (or to end of input) and
//! dropped as it streams past; the caller answers it with an error and
//! reads the next line.

use std::io::{self, BufRead};

/// The longest request line the daemon accepts, in bytes, not counting
/// the newline. Every request of the protocol fits in far less.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// What [`read_request_line`] found.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum ReadLine {
    /// A line of at most [`MAX_LINE_BYTES`], now in the caller's buffer
    /// without its newline. A last line with no newline counts.
    Line,
    /// A line longer than [`MAX_LINE_BYTES`]. Its bytes, through the
    /// newline, were consumed and dropped; the buffer is empty.
    TooLong,
    /// End of input.
    Eof,
}

/// Reads the next line of `input` into `line`, keeping at most
/// [`MAX_LINE_BYTES`] of it.
pub(crate) fn read_request_line(
    input: &mut impl BufRead,
    line: &mut Vec<u8>,
) -> io::Result<ReadLine> {
    line.clear();
    let mut too_long = false;
    loop {
        let buf = match input.fill_buf() {
            Ok(buf) => buf,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if buf.is_empty() {
            return Ok(if too_long {
                ReadLine::TooLong
            } else if line.is_empty() {
                ReadLine::Eof
            } else {
                ReadLine::Line
            });
        }
        let newline = buf.iter().position(|&b| b == b'\n');
        let chunk = &buf[..newline.unwrap_or(buf.len())];
        if !too_long {
            if line.len() + chunk.len() > MAX_LINE_BYTES {
                too_long = true;
                line.clear();
            } else {
                line.extend_from_slice(chunk);
            }
        }
        let used = chunk.len() + usize::from(newline.is_some());
        input.consume(used);
        if newline.is_some() {
            return Ok(if too_long { ReadLine::TooLong } else { ReadLine::Line });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufReader, Cursor};

    /// `bytes` as a socket would deliver them: 4 KiB per `fill_buf`, so a
    /// line near the cap arrives over many reads.
    fn stream(bytes: Vec<u8>) -> impl BufRead {
        BufReader::with_capacity(4096, Cursor::new(bytes))
    }

    /// Reads every line of `bytes`, returning each outcome with the line.
    fn read_all(bytes: Vec<u8>) -> Vec<(ReadLine, Vec<u8>)> {
        let mut input = stream(bytes);
        let mut out = Vec::new();
        let mut line = Vec::new();
        loop {
            let r = read_request_line(&mut input, &mut line).expect("reads");
            if r == ReadLine::Eof {
                return out;
            }
            out.push((r, line.clone()));
        }
    }

    #[test]
    fn a_line_at_the_cap_is_read_whole() {
        let mut bytes = vec![b'x'; MAX_LINE_BYTES];
        bytes.extend_from_slice(b"\nping\nlast");
        let got = read_all(bytes);
        assert_eq!(got.len(), 3);
        assert_eq!(got[0], (ReadLine::Line, vec![b'x'; MAX_LINE_BYTES]));
        assert_eq!(got[1], (ReadLine::Line, b"ping".to_vec()));
        assert_eq!(got[2], (ReadLine::Line, b"last".to_vec()), "an unterminated last line counts");
    }

    #[test]
    fn a_line_one_byte_over_the_cap_is_discarded_through_its_newline() {
        let mut bytes = vec![b'x'; MAX_LINE_BYTES + 1];
        bytes.extend_from_slice(b"\nping\n");
        let got = read_all(bytes);
        assert_eq!(got, vec![(ReadLine::TooLong, vec![]), (ReadLine::Line, b"ping".to_vec())]);
    }

    #[test]
    fn an_unterminated_oversize_stream_is_discarded_without_buffering() {
        let mut input = stream(vec![b'x'; 4 * MAX_LINE_BYTES]);
        let mut line = Vec::new();
        let r = read_request_line(&mut input, &mut line).expect("reads");
        assert_eq!(r, ReadLine::TooLong);
        assert!(line.is_empty());
        assert!(
            line.capacity() <= 2 * MAX_LINE_BYTES,
            "kept {} bytes of capacity for a discarded line",
            line.capacity()
        );
        assert_eq!(read_request_line(&mut input, &mut line).expect("reads"), ReadLine::Eof);
    }
}
