//! Scalar/vector image containers and the image-space operators used by the
//! sparse-sampling algorithms.
//!
//! * [`Image`] — a generic row-major 2D grid.
//! * [`sobel_magnitude`] — the texture-richness weight `w_R(p) = √(Gx²+Gy²)`
//!   of paper Eq. 3.
//! * [`harris_response`] — the Harris corner score used by the "Harris"
//!   sampling baseline of paper Fig. 10.
//! * [`downsample`] — the "Low-Res." sampling baseline.

use std::fmt;

/// A row-major 2D grid of values.
///
/// # Examples
///
/// ```
/// use splatonic_math::Image;
/// let mut img = Image::filled(4, 3, 0.0f64);
/// img[(2, 1)] = 5.0;
/// assert_eq!(img.get(2, 1), Some(&5.0));
/// assert_eq!(img.width(), 4);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Image<T> {
    width: usize,
    height: usize,
    data: Vec<T>,
}

impl<T: Clone> Image<T> {
    /// Creates an image of `width × height` filled with `value`.
    pub fn filled(width: usize, height: usize, value: T) -> Self {
        Image {
            width,
            height,
            data: vec![value; width * height],
        }
    }
}

impl<T> Image<T> {
    /// Creates an image from raw row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != width * height`.
    pub fn from_vec(width: usize, height: usize, data: Vec<T>) -> Self {
        assert_eq!(
            data.len(),
            width * height,
            "image data length must be width * height"
        );
        Image {
            width,
            height,
            data,
        }
    }

    /// Creates an image by evaluating `f(x, y)` at every pixel.
    pub fn from_fn(width: usize, height: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(width * height);
        for y in 0..height {
            for x in 0..width {
                data.push(f(x, y));
            }
        }
        Image {
            width,
            height,
            data,
        }
    }

    /// Image width in pixels.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height in pixels.
    #[inline]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Total number of pixels.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` when the image has zero pixels.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Bounds-checked pixel access.
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> Option<&T> {
        if x < self.width && y < self.height {
            Some(&self.data[y * self.width + x])
        } else {
            None
        }
    }

    /// Raw row-major slice.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Consumes the image, returning the raw data.
    #[inline]
    pub fn into_vec(self) -> Vec<T> {
        self.data
    }

    /// Iterates over `(x, y, &value)`.
    pub fn iter_pixels(&self) -> impl Iterator<Item = (usize, usize, &T)> {
        let w = self.width;
        self.data
            .iter()
            .enumerate()
            .map(move |(i, v)| (i % w, i / w, v))
    }

    /// Maps every pixel through `f`, producing a new image.
    pub fn map<U>(&self, mut f: impl FnMut(&T) -> U) -> Image<U> {
        Image {
            width: self.width,
            height: self.height,
            data: self.data.iter().map(&mut f).collect(),
        }
    }
}

impl<T> std::ops::Index<(usize, usize)> for Image<T> {
    type Output = T;
    #[inline]
    fn index(&self, (x, y): (usize, usize)) -> &T {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        &self.data[y * self.width + x]
    }
}

impl<T> std::ops::IndexMut<(usize, usize)> for Image<T> {
    #[inline]
    fn index_mut(&mut self, (x, y): (usize, usize)) -> &mut T {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        &mut self.data[y * self.width + x]
    }
}

impl<T: fmt::Debug> fmt::Display for Image<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Image({}x{})", self.width, self.height)
    }
}

/// Clamped pixel fetch used by the convolution kernels.
#[inline]
fn at_clamped(img: &Image<f64>, x: isize, y: isize) -> f64 {
    let xc = x.clamp(0, img.width() as isize - 1) as usize;
    let yc = y.clamp(0, img.height() as isize - 1) as usize;
    img[(xc, yc)]
}

/// Sobel gradient magnitude `√(Gx² + Gy²)` per pixel (paper Eq. 3).
///
/// Border pixels use clamped (replicated) neighbours.
///
/// # Examples
///
/// ```
/// use splatonic_math::image::sobel_magnitude;
/// use splatonic_math::Image;
/// // A vertical step edge has strong horizontal gradient at the boundary.
/// let img = Image::from_fn(8, 8, |x, _| if x < 4 { 0.0 } else { 1.0 });
/// let g = sobel_magnitude(&img);
/// assert!(g[(4, 4)] > g[(1, 4)]);
/// ```
pub fn sobel_magnitude(img: &Image<f64>) -> Image<f64> {
    Image::from_fn(img.width(), img.height(), |x, y| {
        let (xi, yi) = (x as isize, y as isize);
        let p = |dx: isize, dy: isize| at_clamped(img, xi + dx, yi + dy);
        let gx = -p(-1, -1) - 2.0 * p(-1, 0) - p(-1, 1) + p(1, -1) + 2.0 * p(1, 0) + p(1, 1);
        let gy = -p(-1, -1) - 2.0 * p(0, -1) - p(1, -1) + p(-1, 1) + 2.0 * p(0, 1) + p(1, 1);
        (gx * gx + gy * gy).sqrt()
    })
}

/// Harris corner response per pixel (Harris & Stephens 1988), with a 3×3
/// structure-tensor window and the classic `k = 0.04`.
///
/// Used by the "Harris" tracking-sampling baseline of paper Fig. 10.
pub fn harris_response(img: &Image<f64>) -> Image<f64> {
    const K: f64 = 0.04;
    let w = img.width();
    let h = img.height();
    // First compute per-pixel gradients.
    let mut gx = Image::filled(w, h, 0.0);
    let mut gy = Image::filled(w, h, 0.0);
    for y in 0..h {
        for x in 0..w {
            let (xi, yi) = (x as isize, y as isize);
            let p = |dx: isize, dy: isize| at_clamped(img, xi + dx, yi + dy);
            gx[(x, y)] =
                -p(-1, -1) - 2.0 * p(-1, 0) - p(-1, 1) + p(1, -1) + 2.0 * p(1, 0) + p(1, 1);
            gy[(x, y)] =
                -p(-1, -1) - 2.0 * p(0, -1) - p(1, -1) + p(-1, 1) + 2.0 * p(0, 1) + p(1, 1);
        }
    }
    // Then the windowed structure tensor and the Harris score.
    Image::from_fn(w, h, |x, y| {
        let (xi, yi) = (x as isize, y as isize);
        let mut sxx = 0.0;
        let mut syy = 0.0;
        let mut sxy = 0.0;
        for dy in -1..=1 {
            for dx in -1..=1 {
                let ix = at_clamped(&gx, xi + dx, yi + dy);
                let iy = at_clamped(&gy, xi + dx, yi + dy);
                sxx += ix * ix;
                syy += iy * iy;
                sxy += ix * iy;
            }
        }
        let det = sxx * syy - sxy * sxy;
        let trace = sxx + syy;
        det - K * trace * trace
    })
}

/// Box-filter downsampling by integer `factor` (the "Low-Res." baseline of
/// paper Fig. 10).
///
/// # Panics
///
/// Panics if `factor` is zero.
pub fn downsample(img: &Image<f64>, factor: usize) -> Image<f64> {
    assert!(factor > 0, "downsample factor must be positive");
    let w = (img.width() / factor).max(1);
    let h = (img.height() / factor).max(1);
    Image::from_fn(w, h, |x, y| {
        let mut sum = 0.0;
        let mut n = 0.0;
        for dy in 0..factor {
            for dx in 0..factor {
                let sx = x * factor + dx;
                let sy = y * factor + dy;
                if let Some(v) = img.get(sx, sy) {
                    sum += v;
                    n += 1.0;
                }
            }
        }
        if n > 0.0 {
            sum / n
        } else {
            0.0
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_round_trip() {
        let img = Image::from_vec(2, 3, vec![1, 2, 3, 4, 5, 6]);
        assert_eq!(img[(0, 0)], 1);
        assert_eq!(img[(1, 2)], 6);
        assert_eq!(img.into_vec(), vec![1, 2, 3, 4, 5, 6]);
    }

    #[test]
    #[should_panic(expected = "width * height")]
    fn from_vec_length_mismatch_panics() {
        let _ = Image::from_vec(2, 2, vec![1, 2, 3]);
    }

    #[test]
    fn get_out_of_bounds_is_none() {
        let img = Image::filled(3, 3, 0.0f64);
        assert!(img.get(3, 0).is_none());
        assert!(img.get(0, 3).is_none());
        assert!(img.get(2, 2).is_some());
    }

    #[test]
    fn iter_pixels_covers_all() {
        let img = Image::from_fn(3, 2, |x, y| x + 10 * y);
        let collected: Vec<_> = img.iter_pixels().map(|(x, y, v)| (x, y, *v)).collect();
        assert_eq!(collected.len(), 6);
        assert_eq!(collected[0], (0, 0, 0));
        assert_eq!(collected[5], (2, 1, 12));
    }

    #[test]
    fn map_preserves_shape() {
        let img = Image::filled(4, 5, 2.0f64);
        let doubled = img.map(|v| v * 2.0);
        assert_eq!(doubled.width(), 4);
        assert_eq!(doubled.height(), 5);
        assert_eq!(doubled[(3, 4)], 4.0);
    }

    #[test]
    fn sobel_flat_image_is_zero() {
        let img = Image::filled(8, 8, 0.7);
        let g = sobel_magnitude(&img);
        assert!(g.as_slice().iter().all(|&v| v.abs() < 1e-12));
    }

    #[test]
    fn sobel_detects_edges() {
        let img = Image::from_fn(16, 16, |x, _| if x < 8 { 0.0 } else { 1.0 });
        let g = sobel_magnitude(&img);
        // Strongest response straddles the edge columns 7..=8.
        assert!(g[(7, 8)] > 1.0);
        assert!(g[(2, 8)] < 1e-12);
    }

    #[test]
    fn harris_prefers_corners_over_edges() {
        // A quadrant image has a corner at the centre.
        let img = Image::from_fn(17, 17, |x, y| if x >= 8 && y >= 8 { 1.0 } else { 0.0 });
        let h = harris_response(&img);
        let corner = h[(8, 8)];
        let edge = h[(8, 14)];
        let flat = h[(2, 2)];
        assert!(
            corner > edge,
            "corner {corner} should beat edge {edge} (flat {flat})"
        );
        assert!(corner > flat);
        // An edge away from the corner should have a non-positive score.
        assert!(edge <= 1e-9);
    }

    #[test]
    fn downsample_averages_blocks() {
        let img = Image::from_fn(4, 4, |x, y| (x + y * 4) as f64);
        let d = downsample(&img, 2);
        assert_eq!(d.width(), 2);
        assert_eq!(d.height(), 2);
        // Block (0,0): values 0,1,4,5 → mean 2.5
        assert!((d[(0, 0)] - 2.5).abs() < 1e-12);
    }

    #[test]
    fn downsample_factor_one_is_identity() {
        let img = Image::from_fn(3, 3, |x, y| (x * y) as f64);
        assert_eq!(downsample(&img, 1), img);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn downsample_zero_panics() {
        let _ = downsample(&Image::filled(2, 2, 0.0), 0);
    }
}
