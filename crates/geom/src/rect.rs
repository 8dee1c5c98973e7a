//! Axis-aligned rectangles.

use crate::Point;
use std::cmp::Ordering;
use std::fmt;

/// An axis-aligned rectangle given by its lower-left and upper-right corners.
///
/// Rectangles are half-open conceptually, but all the area math below treats
/// them as closed regions of the plane; degenerate (zero-width or
/// zero-height) rectangles have zero area and never overlap anything.
///
/// # Examples
///
/// ```
/// use dpm_geom::Rect;
///
/// let a = Rect::new(0.0, 0.0, 4.0, 4.0);
/// let b = Rect::new(2.0, 2.0, 6.0, 6.0);
/// assert_eq!(a.overlap_area(&b), 4.0);
/// assert_eq!(a.intersection(&b), Some(Rect::new(2.0, 2.0, 4.0, 4.0)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Rect {
    /// Lower-left x.
    pub llx: f64,
    /// Lower-left y.
    pub lly: f64,
    /// Upper-right x.
    pub urx: f64,
    /// Upper-right y.
    pub ury: f64,
}

impl Rect {
    /// Creates a rectangle from its corner coordinates.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `llx > urx` or `lly > ury`. A NaN
    /// coordinate compares false either way and passes.
    #[inline]
    pub fn new(llx: f64, lly: f64, urx: f64, ury: f64) -> Self {
        debug_assert!(
            llx.partial_cmp(&urx) != Some(Ordering::Greater),
            "rect llx {llx} > urx {urx}"
        );
        debug_assert!(
            lly.partial_cmp(&ury) != Some(Ordering::Greater),
            "rect lly {lly} > ury {ury}"
        );
        Self { llx, lly, urx, ury }
    }

    /// Creates a rectangle from its lower-left corner and size.
    ///
    /// # Examples
    ///
    /// ```
    /// use dpm_geom::{Point, Rect};
    /// let r = Rect::from_origin_size(Point::new(1.0, 2.0), 3.0, 4.0);
    /// assert_eq!(r, Rect::new(1.0, 2.0, 4.0, 6.0));
    /// ```
    #[inline]
    pub fn from_origin_size(origin: Point, width: f64, height: f64) -> Self {
        Self::new(origin.x, origin.y, origin.x + width, origin.y + height)
    }

    /// Creates a rectangle from its center point and size.
    #[inline]
    pub fn from_center_size(center: Point, width: f64, height: f64) -> Self {
        Self::new(
            center.x - width / 2.0,
            center.y - height / 2.0,
            center.x + width / 2.0,
            center.y + height / 2.0,
        )
    }

    /// Width of the rectangle.
    #[inline]
    pub fn width(&self) -> f64 {
        self.urx - self.llx
    }

    /// Height of the rectangle.
    #[inline]
    pub fn height(&self) -> f64 {
        self.ury - self.lly
    }

    /// Area of the rectangle.
    #[inline]
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Half-perimeter (`width + height`) — the HPWL contribution of a
    /// bounding box.
    #[inline]
    pub fn half_perimeter(&self) -> f64 {
        self.width() + self.height()
    }

    /// Center point.
    #[inline]
    pub fn center(&self) -> Point {
        Point::new((self.llx + self.urx) / 2.0, (self.lly + self.ury) / 2.0)
    }

    /// Lower-left corner.
    #[inline]
    pub fn origin(&self) -> Point {
        Point::new(self.llx, self.lly)
    }

    /// Returns `true` if the point lies inside or on the boundary.
    #[inline]
    pub fn contains(&self, p: Point) -> bool {
        p.x >= self.llx && p.x <= self.urx && p.y >= self.lly && p.y <= self.ury
    }

    /// Returns `true` if `other` lies entirely inside or on the boundary.
    #[inline]
    pub fn contains_rect(&self, other: &Rect) -> bool {
        other.llx >= self.llx
            && other.urx <= self.urx
            && other.lly >= self.lly
            && other.ury <= self.ury
    }

    /// Returns `true` if the interiors of the rectangles intersect.
    ///
    /// Rectangles that merely touch at an edge or corner do *not* intersect.
    #[inline]
    pub fn intersects(&self, other: &Rect) -> bool {
        self.llx < other.urx && other.llx < self.urx && self.lly < other.ury && other.lly < self.ury
    }

    /// The intersection of two rectangles, or `None` if their interiors are
    /// disjoint.
    #[inline]
    pub fn intersection(&self, other: &Rect) -> Option<Rect> {
        if !self.intersects(other) {
            return None;
        }
        Some(Rect::new(
            self.llx.max(other.llx),
            self.lly.max(other.lly),
            self.urx.min(other.urx),
            self.ury.min(other.ury),
        ))
    }

    /// Area of the overlap of two rectangles (zero if disjoint).
    ///
    /// This is the kernel of placement bin-density computation.
    #[inline]
    pub fn overlap_area(&self, other: &Rect) -> f64 {
        let w = self.urx.min(other.urx) - self.llx.max(other.llx);
        let h = self.ury.min(other.ury) - self.lly.max(other.lly);
        if w > 0.0 && h > 0.0 {
            w * h
        } else {
            0.0
        }
    }

    /// The smallest rectangle containing both rectangles.
    #[inline]
    pub fn union(&self, other: &Rect) -> Rect {
        Rect::new(
            self.llx.min(other.llx),
            self.lly.min(other.lly),
            self.urx.max(other.urx),
            self.ury.max(other.ury),
        )
    }

    /// The smallest rectangle containing this rectangle and the point.
    #[inline]
    pub fn union_point(&self, p: Point) -> Rect {
        Rect::new(
            self.llx.min(p.x),
            self.lly.min(p.y),
            self.urx.max(p.x),
            self.ury.max(p.y),
        )
    }

    /// A degenerate rectangle at a single point, useful as a bounding-box
    /// accumulator seed.
    #[inline]
    pub fn degenerate(p: Point) -> Rect {
        Rect::new(p.x, p.y, p.x, p.y)
    }

    /// This rectangle translated by `(dx, dy)`.
    #[inline]
    pub fn translated(&self, dx: f64, dy: f64) -> Rect {
        Rect::new(self.llx + dx, self.lly + dy, self.urx + dx, self.ury + dy)
    }

    /// This rectangle grown outward by `margin` on every side.
    ///
    /// A negative margin shrinks the rectangle; the result is clamped so it
    /// never inverts (it degenerates to its center instead).
    #[inline]
    pub fn inflated(&self, margin: f64) -> Rect {
        let c = self.center();
        Rect::new(
            (self.llx - margin).min(c.x),
            (self.lly - margin).min(c.y),
            (self.urx + margin).max(c.x),
            (self.ury + margin).max(c.y),
        )
    }
}

impl fmt::Display for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[({}, {}) - ({}, {})]",
            self.llx, self.lly, self.urx, self.ury
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_measurements() {
        let r = Rect::new(1.0, 2.0, 5.0, 4.0);
        assert_eq!(r.width(), 4.0);
        assert_eq!(r.height(), 2.0);
        assert_eq!(r.area(), 8.0);
        assert_eq!(r.half_perimeter(), 6.0);
        assert_eq!(r.center(), Point::new(3.0, 3.0));
        assert_eq!(r.origin(), Point::new(1.0, 2.0));
    }

    #[test]
    fn containment() {
        let r = Rect::new(0.0, 0.0, 10.0, 10.0);
        assert!(r.contains(Point::new(0.0, 0.0)));
        assert!(r.contains(Point::new(10.0, 10.0)));
        assert!(!r.contains(Point::new(10.1, 5.0)));
        assert!(r.contains_rect(&Rect::new(1.0, 1.0, 9.0, 9.0)));
        assert!(r.contains_rect(&r));
        assert!(!r.contains_rect(&Rect::new(5.0, 5.0, 11.0, 9.0)));
    }

    #[test]
    fn touching_rects_do_not_intersect() {
        let a = Rect::new(0.0, 0.0, 2.0, 2.0);
        let b = Rect::new(2.0, 0.0, 4.0, 2.0);
        assert!(!a.intersects(&b));
        assert_eq!(a.overlap_area(&b), 0.0);
        assert_eq!(a.intersection(&b), None);
    }

    #[test]
    fn overlap_area_is_symmetric() {
        let a = Rect::new(0.0, 0.0, 4.0, 4.0);
        let b = Rect::new(3.0, 1.0, 7.0, 3.0);
        assert_eq!(a.overlap_area(&b), 2.0);
        assert_eq!(b.overlap_area(&a), 2.0);
    }

    #[test]
    fn overlap_of_contained_rect_is_its_area() {
        let outer = Rect::new(0.0, 0.0, 10.0, 10.0);
        let inner = Rect::new(2.0, 2.0, 4.0, 5.0);
        assert_eq!(outer.overlap_area(&inner), inner.area());
    }

    #[test]
    fn union_covers_both() {
        let a = Rect::new(0.0, 0.0, 2.0, 2.0);
        let b = Rect::new(5.0, -1.0, 6.0, 1.0);
        let u = a.union(&b);
        assert!(u.contains_rect(&a));
        assert!(u.contains_rect(&b));
        assert_eq!(u, Rect::new(0.0, -1.0, 6.0, 2.0));
    }

    #[test]
    fn union_point_extends_bbox() {
        let r = Rect::degenerate(Point::new(1.0, 1.0));
        let r = r.union_point(Point::new(4.0, 0.0));
        assert_eq!(r, Rect::new(1.0, 0.0, 4.0, 1.0));
        assert_eq!(r.half_perimeter(), 4.0);
    }

    #[test]
    fn translate_and_inflate() {
        let r = Rect::new(0.0, 0.0, 2.0, 2.0);
        assert_eq!(r.translated(1.0, -1.0), Rect::new(1.0, -1.0, 3.0, 1.0));
        assert_eq!(r.inflated(1.0), Rect::new(-1.0, -1.0, 3.0, 3.0));
        // Shrinking past the center degenerates rather than inverting.
        let tiny = r.inflated(-2.0);
        assert!(tiny.width() >= 0.0 && tiny.height() >= 0.0);
    }

    #[test]
    fn from_center_size_round_trips() {
        let r = Rect::from_center_size(Point::new(5.0, 5.0), 4.0, 2.0);
        assert_eq!(r, Rect::new(3.0, 4.0, 7.0, 6.0));
        assert_eq!(r.center(), Point::new(5.0, 5.0));
    }
}
