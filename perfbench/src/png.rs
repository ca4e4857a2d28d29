//! An independent decoder for the server's PNG tiles: 8-bit RGB,
//! zlib streams of stored deflate blocks, filter type 0. Every chunk
//! CRC and the zlib Adler-32 are checked; anything else is an error,
//! which the benchmark counts as a failed operation.

#[derive(Debug, Clone, PartialEq)]
pub struct Image {
    pub width: u32,
    pub height: u32,
    pub rgb: Vec<u8>,
}

impl Image {
    pub fn pixel(&self, col: u32, row: u32) -> [u8; 3] {
        let i = 3 * (row as usize * self.width as usize + col as usize);
        [self.rgb[i], self.rgb[i + 1], self.rgb[i + 2]]
    }
}

fn crc32(parts: &[&[u8]]) -> u32 {
    let mut c = 0xffff_ffffu32;
    for part in parts {
        for &b in *part {
            c ^= u32::from(b);
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xedb8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
        }
    }
    c ^ 0xffff_ffff
}

fn adler32(data: &[u8]) -> u32 {
    let (mut a, mut b) = (1u32, 0u32);
    for &x in data {
        a = (a + u32::from(x)) % 65_521;
        b = (b + a) % 65_521;
    }
    (b << 16) | a
}

fn be32(b: &[u8]) -> u32 {
    u32::from_be_bytes([b[0], b[1], b[2], b[3]])
}

pub fn decode(bytes: &[u8]) -> Result<Image, String> {
    const SIG: &[u8] = b"\x89PNG\r\n\x1a\n";
    if !bytes.starts_with(SIG) {
        return Err("missing PNG signature".into());
    }
    let mut at = SIG.len();
    let mut header: Option<(u32, u32)> = None;
    let mut idat = Vec::new();
    let mut ended = false;
    while at < bytes.len() {
        if bytes.len() - at < 12 {
            return Err("truncated chunk".into());
        }
        let len = be32(&bytes[at..]) as usize;
        let kind = &bytes[at + 4..at + 8];
        let body_end = at
            .checked_add(8 + len)
            .filter(|&e| e + 4 <= bytes.len())
            .ok_or("chunk overruns the stream")?;
        let body = &bytes[at + 8..body_end];
        if crc32(&[kind, body]) != be32(&bytes[body_end..]) {
            return Err(format!("CRC mismatch in {}", String::from_utf8_lossy(kind)));
        }
        match kind {
            b"IHDR" => {
                if body.len() != 13 || body[8..] != [8, 2, 0, 0, 0] {
                    return Err("IHDR is not 8-bit RGB, deflate, no interlace".into());
                }
                header = Some((be32(body), be32(&body[4..])));
            }
            b"IDAT" => idat.extend_from_slice(body),
            b"IEND" => {
                ended = true;
                at = body_end + 4;
                break;
            }
            _ => {}
        }
        at = body_end + 4;
    }
    if !ended || at != bytes.len() {
        return Err("missing IEND or trailing bytes".into());
    }
    let (width, height) = header.ok_or("missing IHDR")?;
    let raw = inflate_stored(&idat)?;
    let stride = 1 + 3 * width as usize;
    if raw.len() != stride * height as usize {
        return Err(format!("{} scanline bytes for {width}x{height}", raw.len()));
    }
    let mut rgb = Vec::with_capacity(3 * width as usize * height as usize);
    for row in raw.chunks(stride) {
        if row[0] != 0 {
            return Err(format!("unsupported scanline filter {}", row[0]));
        }
        rgb.extend_from_slice(&row[1..]);
    }
    Ok(Image { width, height, rgb })
}

/// Inflates a zlib stream made only of stored (uncompressed) blocks.
fn inflate_stored(z: &[u8]) -> Result<Vec<u8>, String> {
    if z.len() < 6 || z[0] & 0x0f != 8 || (u16::from(z[0]) << 8 | u16::from(z[1])) % 31 != 0 {
        return Err("bad zlib header".into());
    }
    let mut out = Vec::new();
    let mut at = 2;
    loop {
        let head = *z.get(at).ok_or("truncated deflate stream")?;
        if head & 0b110 != 0 {
            return Err("compressed deflate block (only stored blocks are emitted)".into());
        }
        let fields = z
            .get(at + 1..at + 5)
            .ok_or("truncated stored block header")?;
        let len = u16::from_le_bytes([fields[0], fields[1]]);
        if !len != u16::from_le_bytes([fields[2], fields[3]]) {
            return Err("stored block LEN/NLEN mismatch".into());
        }
        let data = z
            .get(at + 5..at + 5 + len as usize)
            .ok_or("stored block overruns the stream")?;
        out.extend_from_slice(data);
        at += 5 + len as usize;
        if head & 1 == 1 {
            break;
        }
    }
    let tail = z
        .get(at..)
        .filter(|t| t.len() == 4)
        .ok_or("bad Adler-32 trailer")?;
    if adler32(&out) != be32(tail) {
        return Err("Adler-32 mismatch".into());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdv_viz::RgbImage;

    fn sample(w: u32, h: u32) -> RgbImage {
        let mut img = RgbImage::new(w, h);
        for row in 0..h {
            for col in 0..w {
                img.set(
                    col,
                    row,
                    [(col * 7) as u8, (row * 13) as u8, (col ^ row) as u8],
                );
            }
        }
        img
    }

    #[test]
    fn round_trips_the_viz_encoder() {
        // 200x120 spans several 64 KiB stored blocks.
        for (w, h) in [(1, 1), (32, 32), (200, 120)] {
            let img = sample(w, h);
            let back = decode(&kdv_viz::png::encode(&img)).expect("decodes");
            assert_eq!((back.width, back.height), (w, h));
            for row in 0..h {
                for col in 0..w {
                    assert_eq!(back.pixel(col, row), img.get(col, row));
                }
            }
        }
    }

    #[test]
    fn rejects_corruption() {
        let good = kdv_viz::png::encode(&sample(16, 16));
        let mut flipped = good.clone();
        flipped[60] ^= 0x40; // inside IDAT
        assert!(decode(&flipped).unwrap_err().contains("CRC"));
        assert!(decode(&good[..good.len() - 3]).is_err());
        assert!(decode(b"not a png").is_err());
        let mut extra = good.clone();
        extra.push(0);
        assert!(decode(&extra).is_err());
    }

    #[test]
    fn checksums_match_known_vectors() {
        assert_eq!(crc32(&[b"123456789"]), 0xcbf4_3926);
        assert_eq!(adler32(b"Wikipedia"), 0x11e6_0398);
    }
}
