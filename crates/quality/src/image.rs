//! Minimal grayscale image container with deterministic synthetic inputs and
//! a PGM writer.
//!
//! The paper uses real images for Sobel/DCT and shows visual quadrant
//! comparisons (Figures 1 and 3). Real inputs are not required to reproduce
//! the *behaviour* being evaluated (task counts, per-task cost, quality
//! trends), so this module generates a deterministic procedural image with
//! edges, gradients and texture — features that exercise the Sobel and DCT
//! kernels the same way a photograph would.

use std::io::{self, Write};
use std::path::Path;

/// An 8-bit grayscale image stored in row-major order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GrayImage {
    width: usize,
    height: usize,
    data: Vec<u8>,
}

impl GrayImage {
    /// Create a black image of the given dimensions.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0, "image dimensions must be non-zero");
        GrayImage {
            width,
            height,
            data: vec![0; width * height],
        }
    }

    /// Wrap an existing pixel buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != width * height`.
    pub fn from_raw(width: usize, height: usize, data: Vec<u8>) -> Self {
        assert_eq!(
            data.len(),
            width * height,
            "pixel buffer length must equal width * height"
        );
        GrayImage {
            width,
            height,
            data,
        }
    }

    /// Deterministic synthetic test image combining smooth gradients, hard
    /// edges (a grid of rectangles), concentric rings and a high-frequency
    /// texture region.
    ///
    /// The same `(width, height)` always produces the same image, making
    /// experiments repeatable without shipping binary assets. Every pixel is,
    /// bit for bit, what the per-pixel formula (this module's
    /// `synthetic_reference` test) gives: the same expressions, evaluated in
    /// the same order; only where they are evaluated changes. The terms of one
    /// coordinate are tabulated once per column and once per row, and the
    /// ring term `48·|sin(40·r)|`, the one costly term, is evaluated once per
    /// row for each column class: column `x` reuses column `width − x`'s
    /// value only when their `(x / width − 0.5)²` are the same bits, and row
    /// `height − y` reuses row `y`'s whole ring row only when their
    /// `(y / height − 0.5)²` are. With power-of-two sides `x / width` is
    /// exact, every pair matches and `sin` runs for a quarter of the pixels;
    /// at other sides the pairs that do not match compute their own.
    pub fn synthetic(width: usize, height: usize) -> Self {
        let mut img = GrayImage::new(width, height);
        let cols = Axis::new(width, 7);
        let rows = Axis::new(height, 13);
        let texture: [f64; 17] = std::array::from_fn(|k| 24.0 * (k as f64 / 17.0));
        let fill = |row: &mut [u8], y: usize, ring: &[f64]| {
            let (fy, odd_y, phase_y) = (rows.f[y], rows.odd[y], rows.phase[y]);
            for (x, pixel) in row.iter_mut().enumerate() {
                let fx = cols.f[x];
                // Smooth diagonal gradient.
                let mut v = 96.0 * (fx + fy) / 2.0;
                // Rectangular grid: hard edges every 1/8 of the image.
                if cols.odd[x] == odd_y {
                    v += 64.0;
                }
                // Concentric rings for curved edges.
                v += ring[x];
                // High-frequency texture in the lower-right quadrant:
                // `(7x + 13y) % 17` from the two residues, each below 17.
                if fx > 0.5 && fy > 0.5 {
                    let phase = cols.phase[x] + phase_y;
                    v += texture[if phase < 17 { phase } else { phase - 17 }];
                }
                *pixel = v.clamp(0.0, 255.0) as u8;
            }
        };
        let mut ring = vec![0.0f64; width];
        for y in 0..height {
            if rows.mirror[y] != y {
                continue; // written with the row it mirrors
            }
            for x in 0..width {
                let m = cols.mirror[x];
                ring[x] = if m == x {
                    let r = (cols.sq[x] + rows.sq[y]).sqrt();
                    48.0 * (r * 40.0).sin().abs()
                } else {
                    ring[m]
                };
            }
            fill(&mut img.data[y * width..][..width], y, &ring);
            let twin = height - y;
            if twin < height && twin != y && rows.mirror[twin] == y {
                fill(&mut img.data[twin * width..][..width], twin, &ring);
            }
        }
        img
    }

    /// Image width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Borrow the raw row-major pixel buffer.
    pub fn pixels(&self) -> &[u8] {
        &self.data
    }

    /// Mutably borrow the raw row-major pixel buffer.
    pub fn pixels_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }

    /// Consume the image and return its pixel buffer.
    pub fn into_raw(self) -> Vec<u8> {
        self.data
    }

    /// Read the pixel at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of bounds.
    pub fn get(&self, x: usize, y: usize) -> u8 {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        self.data[y * self.width + x]
    }

    /// Write the pixel at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of bounds.
    pub fn set(&mut self, x: usize, y: usize, value: u8) {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        self.data[y * self.width + x] = value;
    }

    /// Pixel values as `f64` samples (for PSNR computation).
    pub fn to_f64(&self) -> Vec<f64> {
        self.data.iter().map(|&p| p as f64).collect()
    }

    /// Compose a "quadrant comparison" image in the style of the paper's
    /// Figure 1 / Figure 3: upper-left from `a`, upper-right from `b`,
    /// lower-left from `c`, lower-right from `d`.
    ///
    /// # Panics
    ///
    /// Panics if the four images do not share identical dimensions.
    pub fn quadrants(a: &GrayImage, b: &GrayImage, c: &GrayImage, d: &GrayImage) -> GrayImage {
        for img in [b, c, d] {
            assert_eq!(
                (a.width, a.height),
                (img.width, img.height),
                "quadrant images must share dimensions"
            );
        }
        let mut out = GrayImage::new(a.width, a.height);
        let half_w = a.width / 2;
        let half_h = a.height / 2;
        for y in 0..a.height {
            for x in 0..a.width {
                let src = match (x < half_w, y < half_h) {
                    (true, true) => a,
                    (false, true) => b,
                    (true, false) => c,
                    (false, false) => d,
                };
                out.data[y * a.width + x] = src.data[y * a.width + x];
            }
        }
        out
    }

    /// Serialise as binary PGM (P5) into an arbitrary writer.
    pub fn write_pgm<W: Write>(&self, mut writer: W) -> io::Result<()> {
        writeln!(writer, "P5")?;
        writeln!(writer, "{} {}", self.width, self.height)?;
        writeln!(writer, "255")?;
        writer.write_all(&self.data)
    }

    /// Write the image as a binary PGM file at `path`.
    pub fn save_pgm<P: AsRef<Path>>(&self, path: P) -> io::Result<()> {
        let file = std::fs::File::create(path)?;
        self.write_pgm(io::BufWriter::new(file))
    }
}

/// The terms of `GrayImage::synthetic` that depend on one coordinate `i` of
/// an axis of length `n`.
struct Axis {
    /// `i / n`.
    f: Vec<f64>,
    /// `(i / n − 0.5)²`.
    sq: Vec<f64>,
    /// Whether `i` falls in an odd cell of the 8×8 checker grid.
    odd: Vec<bool>,
    /// `(step · i) % 17`, the axis's share of the texture phase.
    phase: Vec<usize>,
    /// The coordinate whose ring terms `i` reuses: `n − i` when it comes
    /// first and its `sq` is the same bits, else `i` itself.
    mirror: Vec<usize>,
}

impl Axis {
    fn new(n: usize, step: usize) -> Self {
        let cell = (n / 8).max(1);
        let f: Vec<f64> = (0..n).map(|i| i as f64 / n as f64).collect();
        let sq: Vec<f64> = f
            .iter()
            .map(|&f| {
                let c = f - 0.5;
                c * c
            })
            .collect();
        let mirror = (0..n)
            .map(|i| {
                let m = n - i;
                if m < i && sq[m].to_bits() == sq[i].to_bits() {
                    m
                } else {
                    i
                }
            })
            .collect();
        Axis {
            odd: (0..n).map(|i| (i / cell) % 2 == 1).collect(),
            phase: (0..n).map(|i| (i * step) % 17).collect(),
            f,
            sq,
            mirror,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_image_is_black() {
        let img = GrayImage::new(4, 3);
        assert_eq!(img.width(), 4);
        assert_eq!(img.height(), 3);
        assert!(img.pixels().iter().all(|&p| p == 0));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_dimension_panics() {
        GrayImage::new(0, 10);
    }

    #[test]
    fn from_raw_roundtrip() {
        let img = GrayImage::from_raw(2, 2, vec![1, 2, 3, 4]);
        assert_eq!(img.get(0, 0), 1);
        assert_eq!(img.get(1, 1), 4);
        assert_eq!(img.into_raw(), vec![1, 2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "width * height")]
    fn from_raw_wrong_length_panics() {
        GrayImage::from_raw(2, 2, vec![0; 3]);
    }

    #[test]
    fn set_get_roundtrip() {
        let mut img = GrayImage::new(8, 8);
        img.set(3, 5, 200);
        assert_eq!(img.get(3, 5), 200);
        assert_eq!(img.pixels()[5 * 8 + 3], 200);
    }

    /// `synthetic` as first written: every term evaluated per pixel.
    fn synthetic_reference(width: usize, height: usize) -> GrayImage {
        let mut img = GrayImage::new(width, height);
        for y in 0..height {
            for x in 0..width {
                let fx = x as f64 / width as f64;
                let fy = y as f64 / height as f64;
                let mut v = 96.0 * (fx + fy) / 2.0;
                if (x / (width / 8).max(1)) % 2 == (y / (height / 8).max(1)) % 2 {
                    v += 64.0;
                }
                let cx = fx - 0.5;
                let cy = fy - 0.5;
                let r = (cx * cx + cy * cy).sqrt();
                v += 48.0 * (r * 40.0).sin().abs();
                if fx > 0.5 && fy > 0.5 {
                    v += 24.0 * (((x * 7 + y * 13) % 17) as f64 / 17.0);
                }
                img.data[y * width + x] = v.clamp(0.0, 255.0) as u8;
            }
        }
        img
    }

    #[test]
    fn synthetic_matches_the_per_pixel_formula_bit_for_bit() {
        // Single rows and columns, sides below the checker's 8 (cell 1),
        // powers of two, where every mirror pair shares its ring term, and
        // other sides, where only some pairs have equal squares and the rest
        // compute their own (2047×1023: 639 of 1023 column pairs, 299 of 511
        // row pairs).
        for (width, height) in [
            (1, 1),
            (1, 9),
            (9, 1),
            (7, 7),
            (8, 8),
            (96, 64),
            (100, 37),
            (333, 777),
            (2047, 1023),
        ] {
            assert!(
                GrayImage::synthetic(width, height) == synthetic_reference(width, height),
                "{width}x{height}"
            );
        }
    }

    #[test]
    fn mirrored_coordinates_share_only_equal_squares() {
        // A ring term off by an ulp almost never moves a u8 pixel, so the
        // image comparison above cannot see a mirror whose square differs:
        // check the tables themselves.
        for n in [
            1, 7, 8, 9, 37, 64, 96, 100, 333, 777, 1023, 1024, 2047, 2048,
        ] {
            let axis = Axis::new(n, 7);
            let mut shared = 0;
            for i in 0..n {
                let c = i as f64 / n as f64 - 0.5;
                assert_eq!(axis.sq[i].to_bits(), (c * c).to_bits());
                let m = axis.mirror[i];
                assert!(m == i || (m == n - i && m < i), "n {n}, i {i}");
                assert_eq!(axis.sq[m].to_bits(), axis.sq[i].to_bits(), "n {n}, i {i}");
                shared += usize::from(m != i);
            }
            if n.is_power_of_two() {
                // Every coordinate past the middle shares with its mirror.
                assert_eq!(shared, (n - 1) / 2, "n {n}");
            }
        }
    }

    #[test]
    fn synthetic_is_deterministic_and_nontrivial() {
        let a = GrayImage::synthetic(64, 64);
        let b = GrayImage::synthetic(64, 64);
        assert_eq!(a, b);
        // The image must contain actual structure (more than one value).
        let min = *a.pixels().iter().min().unwrap();
        let max = *a.pixels().iter().max().unwrap();
        assert!(max > min + 50, "synthetic image should have contrast");
    }

    #[test]
    fn quadrants_compose_correct_regions() {
        let mk = |v: u8| GrayImage::from_raw(4, 4, vec![v; 16]);
        let q = GrayImage::quadrants(&mk(10), &mk(20), &mk(30), &mk(40));
        assert_eq!(q.get(0, 0), 10); // upper-left
        assert_eq!(q.get(3, 0), 20); // upper-right
        assert_eq!(q.get(0, 3), 30); // lower-left
        assert_eq!(q.get(3, 3), 40); // lower-right
    }

    #[test]
    #[should_panic(expected = "share dimensions")]
    fn quadrants_dimension_mismatch_panics() {
        let a = GrayImage::new(4, 4);
        let b = GrayImage::new(8, 8);
        GrayImage::quadrants(&a, &b, &a, &a);
    }

    #[test]
    fn pgm_output_has_header_and_payload() {
        let img = GrayImage::from_raw(2, 2, vec![9, 8, 7, 6]);
        let mut buf = Vec::new();
        img.write_pgm(&mut buf).unwrap();
        let text = String::from_utf8_lossy(&buf[..10]);
        assert!(text.starts_with("P5\n2 2\n255"));
        assert_eq!(&buf[buf.len() - 4..], &[9, 8, 7, 6]);
    }

    #[test]
    fn to_f64_matches_pixels() {
        let img = GrayImage::from_raw(1, 3, vec![0, 100, 255]);
        assert_eq!(img.to_f64(), vec![0.0, 100.0, 255.0]);
    }
}
