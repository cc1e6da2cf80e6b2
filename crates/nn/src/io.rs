//! Model serialization: save and load trained SDNets.
//!
//! The paper's reusability story depends on a **library of pre-trained
//! SDNets** ("the SDNets can be trained in minutes, allowing for the
//! creation of a library of models for different PDEs"). This module
//! provides the on-disk format for that library: a small self-describing
//! binary layout (magic + version + architecture + named parameter
//! tensors, little-endian f64) with no external dependencies.

use crate::{EmbeddingKind, SdNet, SdNetConfig};
use mf_tensor::Tensor;
use std::io::{self, Read, Seek, Write};
use std::path::Path;

const MAGIC: &[u8; 8] = b"MFSDNET1";

/// Largest boundary length, channel count, kernel or hidden width a model
/// file may declare.
const MAX_WIDTH: usize = 1 << 16;

/// Largest scalar parameter count a model file may declare: 2²⁶ ≈ 64M
/// (512 MiB of `f64`), the same cap a single stored tensor has.
const MAX_PARAMS: usize = 1 << 26;

pub mod wire {
    //! Little-endian wire primitives of the model format, exposed so
    //! other crates (the trainer's checkpoint format, notably) can share
    //! one encoding instead of inventing a second one.

    use mf_tensor::Tensor;
    use std::io::{self, Read, Seek, SeekFrom, Write};

    /// Write a `u64` little-endian.
    pub fn write_u64(w: &mut impl Write, v: u64) -> io::Result<()> {
        w.write_all(&v.to_le_bytes())
    }

    /// Write an `f64` little-endian.
    pub fn write_f64(w: &mut impl Write, v: f64) -> io::Result<()> {
        w.write_all(&v.to_le_bytes())
    }

    /// Write a length-prefixed UTF-8 string.
    pub fn write_str(w: &mut impl Write, s: &str) -> io::Result<()> {
        write_u64(w, s.len() as u64)?;
        w.write_all(s.as_bytes())
    }

    /// Write a tensor as `rows, cols, values…`.
    pub fn write_tensor(w: &mut impl Write, t: &Tensor) -> io::Result<()> {
        write_u64(w, t.rows() as u64)?;
        write_u64(w, t.cols() as u64)?;
        for &v in t.as_slice() {
            write_f64(w, v)?;
        }
        Ok(())
    }

    /// Read a `u64` little-endian.
    pub fn read_u64(r: &mut impl Read) -> io::Result<u64> {
        let mut b = [0u8; 8];
        r.read_exact(&mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Read an `f64` little-endian.
    pub fn read_f64(r: &mut impl Read) -> io::Result<f64> {
        let mut b = [0u8; 8];
        r.read_exact(&mut b)?;
        Ok(f64::from_le_bytes(b))
    }

    /// Read a length-prefixed UTF-8 string (no longer than the bytes
    /// left in `r`).
    pub fn read_str(r: &mut (impl Read + Seek)) -> io::Result<String> {
        let n = read_u64(r)?;
        if n > bytes_left(r)? {
            return Err(bad("string length exceeds the file"));
        }
        let mut buf = vec![0u8; n as usize];
        r.read_exact(&mut buf)?;
        String::from_utf8(buf).map_err(|_| bad("invalid UTF-8 in model file"))
    }

    /// Read a tensor written by [`write_tensor`] (no more elements than
    /// the bytes left in `r` hold, to bound allocation on corrupt input).
    pub fn read_tensor(r: &mut (impl Read + Seek)) -> io::Result<Tensor> {
        let (rows, cols) = (read_u64(r)?, read_u64(r)?);
        if rows.saturating_mul(cols).saturating_mul(8) > bytes_left(r)? {
            return Err(bad("tensor size exceeds the file"));
        }
        let (rows, cols) = (rows as usize, cols as usize);
        let mut data = vec![0.0; rows * cols];
        for v in &mut data {
            *v = read_f64(r)?;
        }
        Ok(Tensor::from_vec(rows, cols, data))
    }

    /// An `InvalidData` error with the given message.
    pub fn bad(msg: &str) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, msg)
    }

    /// Bytes between the source's position and its end; the position is
    /// kept. A count read from a file is checked against it before
    /// anything is sized by the count.
    pub fn bytes_left(r: &mut impl Seek) -> io::Result<u64> {
        let at = r.stream_position()?;
        let end = r.seek(SeekFrom::End(0))?;
        r.seek(SeekFrom::Start(at))?;
        Ok(end.saturating_sub(at))
    }
}

use wire::{bad, bytes_left, read_f64, read_str, read_u64, write_f64, write_str, write_u64};

impl SdNet {
    /// Serialize the architecture and all parameters to a writer.
    pub fn save_to(&self, w: &mut impl Write) -> io::Result<()> {
        w.write_all(MAGIC)?;
        let cfg = self.config();
        write_u64(w, cfg.boundary_len as u64)?;
        write_u64(w, cfg.conv_channels.len() as u64)?;
        for &c in &cfg.conv_channels {
            write_u64(w, c as u64)?;
        }
        write_u64(w, cfg.conv_kernel as u64)?;
        write_u64(w, cfg.hidden.len() as u64)?;
        for &h in &cfg.hidden {
            write_u64(w, h as u64)?;
        }
        write_u64(w, matches!(cfg.embedding, EmbeddingKind::Concat) as u64)?;
        // The activation word: the trunk is GELU, id 0.
        write_u64(w, 0)?;
        write_f64(w, cfg.coord_extent)?;
        write_u64(w, cfg.coord_fourier as u64)?;

        write_u64(w, self.params.len() as u64)?;
        for (name, t) in self.params.iter() {
            write_str(w, name)?;
            write_u64(w, t.rows() as u64)?;
            write_u64(w, t.cols() as u64)?;
            for &v in t.as_slice() {
                write_f64(w, v)?;
            }
        }
        Ok(())
    }

    /// Deserialize a network saved with [`SdNet::save_to`].
    ///
    /// The stored config is checked before anything is built — every
    /// width in range, an odd kernel, an embedding id of 0 (split) or 1
    /// (concat), the activation id 0 (GELU, the only trunk), a positive
    /// finite `coord_extent` and at most 2²⁶ declared parameters, eight
    /// bytes each of which the source still holds after the header — so a
    /// corrupt or torn file is an `InvalidData` error, never an assert or a
    /// huge allocation. The architecture is then rebuilt (with a dummy RNG
    /// — every parameter is overwritten by the stored values), and the
    /// parameter list is validated name-by-name and shape-by-shape.
    pub fn load_from(r: &mut (impl Read + Seek)) -> io::Result<SdNet> {
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(bad("not a Mosaic Flow SDNet file (bad magic)"));
        }
        let boundary_len = read_u64(r)? as usize;
        let n_conv = read_u64(r)? as usize;
        if n_conv > 64 {
            return Err(bad("conv layer count out of range"));
        }
        let mut conv_channels = Vec::with_capacity(n_conv);
        for _ in 0..n_conv {
            conv_channels.push(read_u64(r)? as usize);
        }
        let conv_kernel = read_u64(r)? as usize;
        let n_hidden = read_u64(r)? as usize;
        if n_hidden == 0 || n_hidden > 64 {
            return Err(bad("hidden layer count out of range"));
        }
        let mut hidden = Vec::with_capacity(n_hidden);
        for _ in 0..n_hidden {
            hidden.push(read_u64(r)? as usize);
        }
        let embedding = match read_u64(r)? {
            0 => EmbeddingKind::Split,
            1 => EmbeddingKind::Concat,
            _ => return Err(bad("unknown embedding id")),
        };
        if read_u64(r)? != 0 {
            return Err(bad("unknown activation id (only GELU, 0, is supported)"));
        }
        let coord_extent = read_f64(r)?;
        let coord_fourier = read_u64(r)? as usize;
        if coord_fourier > 32 {
            return Err(bad("fourier frequency count out of range"));
        }
        let config = SdNetConfig {
            boundary_len,
            conv_channels,
            conv_kernel,
            hidden,
            embedding,
            coord_extent,
            coord_fourier,
        };
        let declared = check_architecture(&config)?;
        if (declared as u64).saturating_mul(8) > bytes_left(r)? {
            return Err(bad("declared parameters exceed the file"));
        }
        use rand::SeedableRng;
        let mut net = SdNet::new(config, &mut rand_chacha::ChaCha8Rng::seed_from_u64(0));

        let n_params = read_u64(r)? as usize;
        if n_params != net.params.len() {
            return Err(bad(
                "parameter count does not match the stored architecture",
            ));
        }
        // Overwrite each parameter after validating identity.
        let expected: Vec<(String, (usize, usize))> = net
            .params
            .iter()
            .map(|(n, t)| (n.to_string(), t.shape()))
            .collect();
        for (i, (exp_name, exp_shape)) in expected.iter().enumerate() {
            let name = read_str(r)?;
            let rows = read_u64(r)? as usize;
            let cols = read_u64(r)? as usize;
            if &name != exp_name || (rows, cols) != *exp_shape {
                return Err(bad("parameter name/shape mismatch"));
            }
            let mut data = vec![0.0; rows * cols];
            for v in &mut data {
                *v = read_f64(r)?;
            }
            *net.params.get_mut(crate::params::ParamId(i)) = Tensor::from_vec(rows, cols, data);
        }
        Ok(net)
    }

    /// Save to a file path.
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let mut f = io::BufWriter::new(std::fs::File::create(path)?);
        self.save_to(&mut f)
    }

    /// Load from a file path.
    pub fn load(path: impl AsRef<Path>) -> io::Result<SdNet> {
        Self::load_from(&mut io::BufReader::new(std::fs::File::open(path)?))
    }
}

/// Refuse a declared architecture that [`SdNet::new`] would assert on or
/// could not allocate; otherwise its scalar parameter count.
fn check_architecture(cfg: &SdNetConfig) -> io::Result<usize> {
    let mut widths = [cfg.boundary_len, cfg.conv_kernel]
        .into_iter()
        .chain(cfg.conv_channels.iter().copied())
        .chain(cfg.hidden.iter().copied());
    if widths.any(|w| !(1..=MAX_WIDTH).contains(&w)) {
        return Err(bad("layer width, channel count or kernel out of range"));
    }
    if cfg.conv_kernel.is_multiple_of(2) {
        return Err(bad("conv kernel is even"));
    }
    if !(cfg.coord_extent.is_finite() && cfg.coord_extent > 0.0) {
        return Err(bad("coord_extent is not a positive finite number"));
    }
    match declared_params(cfg) {
        Some(n) if n <= MAX_PARAMS => Ok(n),
        _ => Err(bad("declared parameter count out of range")),
    }
}

/// The scalar parameter count [`SdNet::new`] allocates for `cfg`, or
/// `None` if it overflows. Every layer is a `[out × fan_in]` weight plus a
/// `[1 × out]` bias.
fn declared_params(cfg: &SdNetConfig) -> Option<usize> {
    let layer = |fan_in: usize, out: usize| fan_in.checked_mul(out)?.checked_add(out);
    let mut total = 0usize;
    let mut in_ch = 1usize;
    for &out in &cfg.conv_channels {
        total = total.checked_add(layer(in_ch.checked_mul(cfg.conv_kernel)?, out)?)?;
        in_ch = out;
    }
    // The split layer's two weight blocks share one bias.
    let mut fan_in = cfg
        .boundary_len
        .checked_mul(in_ch)?
        .checked_add(cfg.coord_features())?;
    for &out in cfg.hidden.iter().chain(&[1]) {
        total = total.checked_add(layer(fan_in, out)?)?;
        fan_in = out;
    }
    Some(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn make_net() -> SdNet {
        let cfg = SdNetConfig {
            boundary_len: 16,
            conv_channels: vec![2, 3],
            conv_kernel: 3,
            hidden: vec![10, 8],
            embedding: EmbeddingKind::Split,
            coord_extent: 0.5,
            coord_fourier: 2,
        };
        SdNet::new(cfg, &mut ChaCha8Rng::seed_from_u64(42))
    }

    #[test]
    fn roundtrip_preserves_predictions_exactly() {
        let net = make_net();
        let mut buf = Vec::new();
        net.save_to(&mut buf).unwrap();
        let loaded = SdNet::load_from(&mut io::Cursor::new(&buf)).unwrap();

        assert_eq!(loaded.config().hidden, net.config().hidden);
        assert_eq!(loaded.config().conv_channels, net.config().conv_channels);
        assert_eq!(loaded.count_params(), net.count_params());
        assert_eq!(declared_params(net.config()), Some(net.count_params()));

        let gb = Tensor::from_fn(2, 16, |r, c| ((r * 16 + c) as f64 * 0.3).sin());
        let x = Tensor::from_fn(6, 2, |r, c| 0.05 * (r * 2 + c) as f64);
        let a = net.predict(&gb, &x, 3);
        let b = loaded.predict(&gb, &x, 3);
        assert!(a.allclose(&b, 0.0), "predictions differ after roundtrip");
    }

    #[test]
    fn file_roundtrip() {
        let net = make_net();
        let path = std::env::temp_dir().join("mf_sdnet_io_test.mfn");
        net.save(&path).unwrap();
        let loaded = SdNet::load(&path).unwrap();
        assert_eq!(loaded.params.flatten(), net.params.flatten());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn rejects_bad_magic() {
        let mut buf = Vec::new();
        make_net().save_to(&mut buf).unwrap();
        buf[0] = b'X';
        let err = SdNet::load_from(&mut io::Cursor::new(&buf)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn rejects_truncated_file() {
        let mut buf = Vec::new();
        make_net().save_to(&mut buf).unwrap();
        buf.truncate(buf.len() / 2);
        assert!(SdNet::load_from(&mut io::Cursor::new(&buf)).is_err());
    }

    #[test]
    fn corrupt_architectures_are_invalid_data_before_anything_is_built() {
        // `make_net`'s header: magic, boundary_len, conv count and its 2
        // channels from 24, the kernel at 40, hidden count and its 2
        // widths from 56, embedding at 72, activation at 80, coord_extent
        // at 88, coord_fourier; the parameters from 104.
        let mut clean = Vec::new();
        make_net().save_to(&mut clean).unwrap();
        let whole = clean.len();
        // (what, spliced `(offset, word)`s, bytes kept)
        type Case<'a> = (&'a str, &'a [(usize, u64)], usize);
        let cases: [Case; 9] = [
            ("even kernel", &[(40, 4)], whole),
            ("embedding word 7", &[(72, 7)], whole),
            // A Tanh network written by an older build.
            ("activation word 1", &[(80, 1)], whole),
            ("2^40 width", &[(56, 1 << 40)], whole),
            ("zero channels", &[(24, 0)], whole),
            ("NaN coord_extent", &[(88, f64::NAN.to_bits())], whole),
            ("negative coord_extent", &[(88, (-0.5f64).to_bits())], whole),
            // Each width in range; the 2^16 × 2^16 trunk layer is not.
            ("2^32 parameters", &[(56, 1 << 16), (64, 1 << 16)], whole),
            // A torn file: ~2^24 parameters in range, no bytes left for them.
            (
                "torn after the header",
                &[(56, 1 << 12), (64, 1 << 12)],
                104,
            ),
        ];
        for (what, splices, len) in cases {
            let mut buf = clean[..len].to_vec();
            for &(at, v) in splices {
                buf[at..at + 8].copy_from_slice(&v.to_le_bytes());
            }
            let err = SdNet::load_from(&mut io::Cursor::new(&buf)).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}: {err}");
        }
    }

    #[test]
    fn concat_variant_roundtrips() {
        let cfg = SdNetConfig {
            boundary_len: 8,
            conv_channels: vec![],
            conv_kernel: 3,
            hidden: vec![6],
            embedding: EmbeddingKind::Concat,
            coord_extent: 1.0,
            coord_fourier: 0,
        };
        let net = SdNet::new(cfg, &mut ChaCha8Rng::seed_from_u64(1));
        let mut buf = Vec::new();
        net.save_to(&mut buf).unwrap();
        let loaded = SdNet::load_from(&mut io::Cursor::new(&buf)).unwrap();
        assert_eq!(loaded.config().embedding, EmbeddingKind::Concat);
        assert_eq!(loaded.config().coord_extent, 1.0);
    }
}
