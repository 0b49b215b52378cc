//! *ncdf-lite*: a real, self-describing array file format.
//!
//! The paper's post-processing pipeline writes the Okubo-Weiss field as
//! netCDF through PIO. We stand in a compact but genuine format with the
//! same essentials — named dimensions, global attributes, typed
//! multi-dimensional variables — and byte-exact serialization, so the
//! storage sizes that drive the paper's `S_io` term come from actually
//! encoded files rather than made-up numbers.
//!
//! ### Wire format (little-endian)
//!
//! ```text
//! magic   "NCDL"            4 B
//! version u16               currently 1
//! flags   u16               reserved, 0
//! dims    u32 count, then per dim:  name(u16 len + utf8), size u64
//! attrs   u32 count, then per attr: name, value (both u16 len + utf8)
//! vars    u32 count, then per var:  name, dtype u8, ndims u8,
//!                                   dim indices u32 × ndims,
//!                                   element count u64, raw LE data
//! ```
//!
//! A variable has at most 255 dimensions: its rank is one byte.

/// Magic bytes identifying an ncdf-lite file.
pub(crate) const MAGIC: &[u8; 4] = b"NCDL";
/// Current format version.
pub(crate) const VERSION: u16 = 1;
/// Most dimensions one variable can have (`ndims` is a `u8` on the wire).
const MAX_DIMS: usize = u8::MAX as usize;

/// Element type of a variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DataType {
    /// 32-bit IEEE float.
    F32,
    /// 64-bit IEEE float.
    F64,
    /// 32-bit signed integer.
    I32,
    /// Raw bytes.
    U8,
}

impl DataType {
    fn code(self) -> u8 {
        match self {
            DataType::F32 => 0,
            DataType::F64 => 1,
            DataType::I32 => 2,
            DataType::U8 => 3,
        }
    }

    fn from_code(c: u8) -> Result<Self, NcError> {
        Ok(match c {
            0 => DataType::F32,
            1 => DataType::F64,
            2 => DataType::I32,
            3 => DataType::U8,
            other => return Err(NcError::BadDataType(other)),
        })
    }

    /// Bytes per element.
    pub(crate) fn size(self) -> usize {
        match self {
            DataType::F32 | DataType::I32 => 4,
            DataType::F64 => 8,
            DataType::U8 => 1,
        }
    }
}

/// Typed variable payload.
#[derive(Debug, Clone, PartialEq)]
pub enum VarData {
    /// 32-bit floats.
    F32(Vec<f32>),
    /// 64-bit floats.
    F64(Vec<f64>),
    /// 32-bit signed integers.
    I32(Vec<i32>),
    /// Raw bytes.
    U8(Vec<u8>),
}

impl VarData {
    /// The element type of this payload.
    pub(crate) fn dtype(&self) -> DataType {
        match self {
            VarData::F32(_) => DataType::F32,
            VarData::F64(_) => DataType::F64,
            VarData::I32(_) => DataType::I32,
            VarData::U8(_) => DataType::U8,
        }
    }

    /// Number of elements.
    pub(crate) fn len(&self) -> usize {
        match self {
            VarData::F32(v) => v.len(),
            VarData::F64(v) => v.len(),
            VarData::I32(v) => v.len(),
            VarData::U8(v) => v.len(),
        }
    }
}

/// A variable: a named, typed array over a subset of the file's dimensions.
#[derive(Debug, Clone, PartialEq)]
pub struct NcVariable {
    /// Variable name.
    pub name: String,
    /// Indices into the file's dimension table, slowest-varying first.
    pub dims: Vec<usize>,
    /// The payload.
    pub data: VarData,
}

/// Errors from encoding or decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NcError {
    /// Not an ncdf-lite file.
    BadMagic,
    /// Unsupported version.
    BadVersion(u16),
    /// Unknown data-type code.
    BadDataType(u8),
    /// Input ended prematurely.
    Truncated,
    /// A name was not valid UTF-8.
    BadName,
    /// Variable shape does not match its data length.
    ShapeMismatch {
        /// Variable name.
        name: String,
        /// Elements implied by the dimensions.
        expected: u64,
        /// Elements actually present.
        actual: u64,
    },
    /// A variable references a dimension index that does not exist.
    BadDimIndex(usize),
    /// A variable has more than 255 dimensions.
    TooManyDims {
        /// Variable name.
        name: String,
        /// Dimensions requested.
        ndims: usize,
    },
}

impl std::fmt::Display for NcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NcError::BadMagic => write!(f, "bad magic"),
            NcError::BadVersion(v) => write!(f, "unsupported version {v}"),
            NcError::BadDataType(c) => write!(f, "unknown dtype code {c}"),
            NcError::Truncated => write!(f, "truncated input"),
            NcError::BadName => write!(f, "invalid UTF-8 in name"),
            NcError::ShapeMismatch {
                name,
                expected,
                actual,
            } => write!(
                f,
                "variable {name}: shape implies {expected} elements, got {actual}"
            ),
            NcError::BadDimIndex(i) => write!(f, "dimension index {i} out of range"),
            NcError::TooManyDims { name, ndims } => write!(
                f,
                "variable {name}: {ndims} dimensions, at most {MAX_DIMS} allowed"
            ),
        }
    }
}

impl std::error::Error for NcError {}

/// An in-memory ncdf-lite file.
///
/// ```
/// use ivis_storage::ncdf::{NcFile, VarData};
///
/// let mut f = NcFile::new();
/// let cells = f.add_dim("cells", 4);
/// f.add_attr("title", "okubo-weiss");
/// f.add_var("W", vec![cells], VarData::F64(vec![-1.0, 0.5, 2.0, -0.2])).unwrap();
/// let bytes = f.encode();
/// assert_eq!(bytes.len() as u64, f.encoded_size());
/// assert_eq!(NcFile::decode(&bytes).unwrap(), f);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NcFile {
    /// Named dimensions.
    pub dims: Vec<(String, u64)>,
    /// Global attributes.
    pub attrs: Vec<(String, String)>,
    /// Variables.
    pub vars: Vec<NcVariable>,
}

impl NcFile {
    /// An empty file.
    pub fn new() -> Self {
        NcFile::default()
    }

    /// Add a dimension, returning its index.
    pub fn add_dim(&mut self, name: impl Into<String>, size: u64) -> usize {
        self.dims.push((name.into(), size));
        self.dims.len() - 1
    }

    /// Add a global attribute.
    pub fn add_attr(&mut self, name: impl Into<String>, value: impl Into<String>) {
        self.attrs.push((name.into(), value.into()));
    }

    /// Add a variable, validating its rank and its shape against the
    /// dimension table.
    pub fn add_var(
        &mut self,
        name: impl Into<String>,
        dims: Vec<usize>,
        data: VarData,
    ) -> Result<(), NcError> {
        let name = name.into();
        if dims.len() > MAX_DIMS {
            return Err(NcError::TooManyDims {
                name,
                ndims: dims.len(),
            });
        }
        let mut expected: u64 = 1;
        for &d in &dims {
            let (_, size) = self.dims.get(d).ok_or(NcError::BadDimIndex(d))?;
            expected = expected.saturating_mul(*size);
        }
        if dims.is_empty() {
            expected = data.len() as u64; // scalar/opaque variables
        }
        if expected != data.len() as u64 {
            return Err(NcError::ShapeMismatch {
                name,
                expected,
                actual: data.len() as u64,
            });
        }
        self.vars.push(NcVariable { name, dims, data });
        Ok(())
    }

    /// Find a variable by name.
    pub fn var(&self, name: &str) -> Option<&NcVariable> {
        self.vars.iter().find(|v| v.name == name)
    }

    /// Find an attribute value by name.
    pub fn attr(&self, name: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Exact encoded size in bytes, without encoding.
    pub fn encoded_size(&self) -> u64 {
        let mut n = 4 + 2 + 2; // magic + version + flags
        n += 4;
        for (name, _) in &self.dims {
            n += 2 + name.len() + 8;
        }
        n += 4;
        for (name, value) in &self.attrs {
            n += 2 + name.len() + 2 + value.len();
        }
        n += 4;
        for v in &self.vars {
            n += 2 + v.name.len() + 1 + 1 + 4 * v.dims.len() + 8;
            n += v.data.len() * v.data.dtype().size();
        }
        n as u64
    }

    /// Serialize to bytes.
    ///
    /// # Panics
    /// Panics if a count or a name's length does not fit its wire field,
    /// or a variable pushed through the public fields rather than
    /// [`NcFile::add_var`] has more than 255 dimensions. Nothing is ever
    /// silently truncated.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.encoded_size() as usize);
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&0u16.to_le_bytes());
        put_u32(&mut buf, self.dims.len());
        for (name, size) in &self.dims {
            put_name(&mut buf, name);
            buf.extend_from_slice(&size.to_le_bytes());
        }
        put_u32(&mut buf, self.attrs.len());
        for (name, value) in &self.attrs {
            put_name(&mut buf, name);
            put_name(&mut buf, value);
        }
        put_u32(&mut buf, self.vars.len());
        for v in &self.vars {
            put_name(&mut buf, &v.name);
            buf.push(v.data.dtype().code());
            buf.push(u8::try_from(v.dims.len()).expect("variable rank exceeds MAX_DIMS"));
            for &d in &v.dims {
                put_u32(&mut buf, d);
            }
            buf.extend_from_slice(&(v.data.len() as u64).to_le_bytes());
            match &v.data {
                VarData::F32(xs) => xs
                    .iter()
                    .for_each(|x| buf.extend_from_slice(&x.to_le_bytes())),
                VarData::F64(xs) => xs
                    .iter()
                    .for_each(|x| buf.extend_from_slice(&x.to_le_bytes())),
                VarData::I32(xs) => xs
                    .iter()
                    .for_each(|x| buf.extend_from_slice(&x.to_le_bytes())),
                VarData::U8(xs) => buf.extend_from_slice(xs),
            }
        }
        buf
    }

    /// Parse from bytes.
    pub fn decode(mut input: &[u8]) -> Result<NcFile, NcError> {
        let buf = &mut input;
        let magic = take(buf, 4)?;
        if magic != MAGIC {
            return Err(NcError::BadMagic);
        }
        let version = get_u16(buf)?;
        if version != VERSION {
            return Err(NcError::BadVersion(version));
        }
        let _flags = get_u16(buf)?;
        let mut file = NcFile::new();
        let ndims = get_u32(buf)? as usize;
        for _ in 0..ndims {
            let name = get_name(buf)?;
            let size = get_u64(buf)?;
            file.dims.push((name, size));
        }
        let nattrs = get_u32(buf)? as usize;
        for _ in 0..nattrs {
            let name = get_name(buf)?;
            let value = get_name(buf)?;
            file.attrs.push((name, value));
        }
        let nvars = get_u32(buf)? as usize;
        for _ in 0..nvars {
            let name = get_name(buf)?;
            let dtype = DataType::from_code(get_u8(buf)?)?;
            let nd = get_u8(buf)? as usize;
            let mut dims = Vec::with_capacity(nd);
            for _ in 0..nd {
                let d = get_u32(buf)? as usize;
                if d >= file.dims.len() {
                    return Err(NcError::BadDimIndex(d));
                }
                dims.push(d);
            }
            // The count is the file's claim: a payload longer than memory
            // can address cannot be present in `input` either.
            let len = usize::try_from(get_u64(buf)?)
                .ok()
                .and_then(|count| count.checked_mul(dtype.size()))
                .ok_or(NcError::Truncated)?;
            let raw = take(buf, len)?;
            let data = match dtype {
                DataType::F32 => VarData::F32(
                    raw.chunks_exact(4)
                        .map(|c| f32::from_le_bytes(c.try_into().expect("chunk is 4 bytes")))
                        .collect(),
                ),
                DataType::F64 => VarData::F64(
                    raw.chunks_exact(8)
                        .map(|c| f64::from_le_bytes(c.try_into().expect("chunk is 8 bytes")))
                        .collect(),
                ),
                DataType::I32 => VarData::I32(
                    raw.chunks_exact(4)
                        .map(|c| i32::from_le_bytes(c.try_into().expect("chunk is 4 bytes")))
                        .collect(),
                ),
                DataType::U8 => VarData::U8(raw.to_vec()),
            };
            file.vars.push(NcVariable { name, dims, data });
        }
        Ok(file)
    }
}

fn put_u32(buf: &mut Vec<u8>, n: usize) {
    let n = u32::try_from(n).expect("count does not fit the u32 wire field");
    buf.extend_from_slice(&n.to_le_bytes());
}

fn put_name(buf: &mut Vec<u8>, s: &str) {
    let len = u16::try_from(s.len()).expect("name too long");
    buf.extend_from_slice(&len.to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

fn take<'a>(buf: &mut &'a [u8], n: usize) -> Result<&'a [u8], NcError> {
    if buf.len() < n {
        return Err(NcError::Truncated);
    }
    let (head, tail) = buf.split_at(n);
    *buf = tail;
    Ok(head)
}

/// The next `N` bytes as an array, advancing the cursor.
fn take_array<const N: usize>(buf: &mut &[u8]) -> Result<[u8; N], NcError> {
    Ok(take(buf, N)?.try_into().expect("take returned N bytes"))
}

fn get_u8(buf: &mut &[u8]) -> Result<u8, NcError> {
    Ok(u8::from_le_bytes(take_array(buf)?))
}

fn get_u16(buf: &mut &[u8]) -> Result<u16, NcError> {
    Ok(u16::from_le_bytes(take_array(buf)?))
}

fn get_u32(buf: &mut &[u8]) -> Result<u32, NcError> {
    Ok(u32::from_le_bytes(take_array(buf)?))
}

fn get_u64(buf: &mut &[u8]) -> Result<u64, NcError> {
    Ok(u64::from_le_bytes(take_array(buf)?))
}

fn get_name(buf: &mut &[u8]) -> Result<String, NcError> {
    let len = get_u16(buf)? as usize;
    let raw = take(buf, len)?;
    String::from_utf8(raw.to_vec()).map_err(|_| NcError::BadName)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_file() -> NcFile {
        let mut f = NcFile::new();
        let lat = f.add_dim("lat", 3);
        let lon = f.add_dim("lon", 4);
        f.add_attr("title", "okubo-weiss");
        f.add_attr("units", "1/s^2");
        let data: Vec<f64> = (0..12).map(|i| i as f64 * 0.5 - 3.0).collect();
        f.add_var("W", vec![lat, lon], VarData::F64(data)).unwrap();
        f.add_var("mask", vec![lat, lon], VarData::U8(vec![1; 12]))
            .unwrap();
        f
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let f = sample_file();
        let encoded = f.encode();
        let decoded = NcFile::decode(&encoded).unwrap();
        assert_eq!(f, decoded);
    }

    #[test]
    fn encoded_size_is_exact() {
        let f = sample_file();
        assert_eq!(f.encode().len() as u64, f.encoded_size());
        let empty = NcFile::new();
        assert_eq!(empty.encode().len() as u64, empty.encoded_size());
    }

    #[test]
    fn shape_mismatch_rejected() {
        let mut f = NcFile::new();
        let d = f.add_dim("x", 10);
        let err = f
            .add_var("v", vec![d], VarData::F32(vec![0.0; 5]))
            .unwrap_err();
        assert_eq!(
            err,
            NcError::ShapeMismatch {
                name: "v".into(),
                expected: 10,
                actual: 5
            }
        );
    }

    #[test]
    fn bad_dim_index_rejected() {
        let mut f = NcFile::new();
        let err = f
            .add_var("v", vec![3], VarData::F32(vec![0.0]))
            .unwrap_err();
        assert_eq!(err, NcError::BadDimIndex(3));
    }

    #[test]
    fn rank_above_255_is_refused_not_truncated() {
        // The rank is one byte on the wire: 256 dimensions would encode as
        // rank 0 and decode to a different file.
        let mut f = NcFile::new();
        let d = f.add_dim("one", 1);
        f.add_var("r255", vec![d; MAX_DIMS], VarData::U8(vec![7]))
            .unwrap();
        assert_eq!(NcFile::decode(&f.encode()).unwrap(), f);
        let err = f
            .add_var("r256", vec![d; MAX_DIMS + 1], VarData::U8(vec![7]))
            .unwrap_err();
        assert_eq!(
            err,
            NcError::TooManyDims {
                name: "r256".into(),
                ndims: 256
            }
        );
        assert_eq!(f.vars.len(), 1, "a refused variable is not added");
        assert_eq!(NcFile::decode(&f.encode()).unwrap(), f);
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_DIMS")]
    fn encoder_panics_rather_than_truncating_a_hand_built_rank() {
        let mut f = NcFile::new();
        let d = f.add_dim("one", 1);
        f.vars.push(NcVariable {
            name: "r".into(),
            dims: vec![d; MAX_DIMS + 1],
            data: VarData::U8(vec![7]),
        });
        let _ = f.encode();
    }

    #[test]
    fn bad_magic_rejected() {
        assert_eq!(NcFile::decode(b"XXXX\x01\x00"), Err(NcError::BadMagic));
    }

    #[test]
    fn truncation_detected_everywhere() {
        let encoded = sample_file().encode();
        // Chop the file at a few dozen places; every prefix must fail
        // cleanly, never panic.
        for cut in (0..encoded.len() - 1).step_by(7) {
            let r = NcFile::decode(&encoded[..cut]);
            assert!(r.is_err(), "prefix of {cut} bytes should fail");
        }
    }

    #[test]
    fn wrong_version_rejected() {
        let mut raw = sample_file().encode();
        raw[4] = 9; // bump version field
        assert_eq!(NcFile::decode(&raw), Err(NcError::BadVersion(9)));
    }

    #[test]
    fn lookup_helpers() {
        let f = sample_file();
        assert_eq!(f.attr("title"), Some("okubo-weiss"));
        assert_eq!(f.attr("missing"), None);
        assert!(f.var("W").is_some());
        assert!(f.var("nope").is_none());
        assert_eq!(f.var("W").unwrap().data.len(), 12);
    }

    #[test]
    fn f32_and_i32_roundtrip() {
        let mut f = NcFile::new();
        let d = f.add_dim("n", 4);
        f.add_var(
            "a",
            vec![d],
            VarData::F32(vec![1.5, -2.5, f32::MAX, f32::MIN_POSITIVE]),
        )
        .unwrap();
        f.add_var("b", vec![d], VarData::I32(vec![i32::MIN, -1, 0, i32::MAX]))
            .unwrap();
        let back = NcFile::decode(&f.encode()).unwrap();
        assert_eq!(back, f);
    }

    #[test]
    fn scalar_variable_without_dims() {
        let mut f = NcFile::new();
        f.add_var("t", vec![], VarData::F64(vec![42.0])).unwrap();
        let back = NcFile::decode(&f.encode()).unwrap();
        assert_eq!(back.var("t").unwrap().data, VarData::F64(vec![42.0]));
    }

    #[test]
    fn field_file_size_scales_with_grid() {
        // A 60 km global grid (~649k cells in MPAS-O). One f64 variable
        // should dominate the encoded size.
        let mut f = NcFile::new();
        let n = 10_000;
        let d = f.add_dim("cells", n);
        f.add_var("W", vec![d], VarData::F64(vec![0.0; n as usize]))
            .unwrap();
        let size = f.encoded_size();
        assert!(size >= 8 * n && size < 8 * n + 200, "size={size}");
    }

    #[test]
    fn hostile_element_count_is_truncation_not_overflow() {
        // One F64 variable claiming 2^61 + 1 elements: `count * 8` wraps
        // to 8, so an unchecked multiply would read one element.
        let mut raw = Vec::new();
        raw.extend_from_slice(MAGIC);
        raw.extend_from_slice(&VERSION.to_le_bytes());
        raw.extend_from_slice(&0u16.to_le_bytes()); // flags
        raw.extend_from_slice(&0u32.to_le_bytes()); // dims
        raw.extend_from_slice(&0u32.to_le_bytes()); // attrs
        raw.extend_from_slice(&1u32.to_le_bytes()); // vars
        raw.extend_from_slice(&1u16.to_le_bytes());
        raw.push(b'v');
        raw.push(DataType::F64.code());
        raw.push(0); // ndims
        raw.extend_from_slice(&((1u64 << 61) + 1).to_le_bytes());
        raw.extend_from_slice(&1.5f64.to_le_bytes());
        assert_eq!(NcFile::decode(&raw), Err(NcError::Truncated));
    }

    fn bytes(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<u8>> {
        prop::collection::vec((0u16..256).prop_map(|b| b as u8), len)
    }

    /// A valid file with up to three dims, attrs and variables of every
    /// type, sized from `seed`.
    fn arbitrary_file(seed: u64) -> NcFile {
        let mut rng = TestRng::for_case(seed);
        let mut f = NcFile::new();
        let name = |rng: &mut TestRng| format!("n{}", rng.below(1000));
        for _ in 0..rng.below(4) {
            let n = name(&mut rng);
            f.add_dim(n, rng.below(6) as u64);
        }
        for _ in 0..rng.below(4) {
            let (n, v) = (name(&mut rng), "é".repeat(rng.below(3)));
            f.add_attr(n, v);
        }
        for _ in 0..rng.below(4) {
            let dims: Vec<usize> = match f.dims.len() {
                0 => Vec::new(),
                nd => (0..rng.below(3)).map(|_| rng.below(nd)).collect(),
            };
            let len = if dims.is_empty() {
                rng.below(5)
            } else {
                dims.iter().map(|&d| f.dims[d].1 as usize).product()
            };
            let data = match rng.below(4) {
                0 => VarData::F32((0..len).map(|_| rng.unit_f64() as f32).collect()),
                1 => VarData::F64((0..len).map(|_| f64::from_bits(rng.next_u64())).collect()),
                2 => VarData::I32((0..len).map(|_| rng.next_u64() as i32).collect()),
                _ => VarData::U8((0..len).map(|_| rng.next_u64() as u8).collect()),
            };
            let n = name(&mut rng);
            f.add_var(n, dims, data).expect("shape follows the dims");
        }
        f
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn decode_never_panics_on_arbitrary_bytes(raw in bytes(0..96)) {
            let _ = NcFile::decode(&raw);
            // The same bytes behind a valid preamble reach the tables.
            let mut framed = b"NCDL\x01\x00\x00\x00".to_vec();
            framed.extend_from_slice(&raw);
            let _ = NcFile::decode(&framed);
        }

        #[test]
        fn valid_encodings_round_trip_and_damaged_ones_fail_cleanly(
            seed in 0u64..u64::MAX,
            cut in 0usize..4096,
            junk in bytes(0..9),
        ) {
            let f = arbitrary_file(seed);
            let encoded = f.encode();
            prop_assert_eq!(encoded.len() as u64, f.encoded_size());
            // NaN payloads compare unequal, so compare re-encoded bytes.
            let back = NcFile::decode(&encoded).expect("valid encoding decodes");
            prop_assert_eq!(back.encode(), encoded.clone());
            // Truncate anywhere short of the end: always an error.
            let at = cut % encoded.len();
            prop_assert!(NcFile::decode(&encoded[..at]).is_err());
            // Splice noise in at the cut: an error or some file, never a panic.
            let mut spliced = encoded[..at].to_vec();
            spliced.extend_from_slice(&junk);
            spliced.extend_from_slice(&encoded[at..]);
            let _ = NcFile::decode(&spliced);
        }
    }
}
