// The point type shared by every subsystem: dense coordinates plus the color
// (fairness category) and streaming metadata (arrival time, unique id).
#ifndef FKC_METRIC_POINT_H_
#define FKC_METRIC_POINT_H_

#include <cstdint>
#include <string>
#include <vector>

namespace fkc {

/// Dense coordinate vector. Double precision throughout: the guess ladder
/// spans up to ~6 decades of scale (PHONES has aspect ratio 6.4e5) and radius
/// comparisons at the small end must stay exact enough to pick guesses.
using Coordinates = std::vector<double>;

/// A colored metric point.
///
/// `color` is the fairness category index in [0, ell). `arrival` is the
/// logical time step at which the point entered the stream (-1 for points
/// never streamed, e.g. in purely sequential uses). `id` is unique per stream
/// and used for identity checks and memory accounting.
struct Point {
  Coordinates coords;
  int color = 0;
  int64_t arrival = -1;
  uint64_t id = 0;

  Point() = default;
  Point(Coordinates c, int col) : coords(std::move(c)), color(col) {}
  Point(Coordinates c, int col, int64_t t, uint64_t pid)
      : coords(std::move(c)), color(col), arrival(t), id(pid) {}

  size_t dimension() const { return coords.size(); }

  /// Debug representation: "(x0, x1, ...)#color@arrival".
  std::string ToString() const;
};

/// Identity (same stream slot), not geometric equality.
inline bool SamePoint(const Point& a, const Point& b) { return a.id == b.id; }

/// Number of remaining steps during which a point that arrived at time
/// `arrival` belongs to the window of size `window_size` at time `now`:
/// TTL(p) = max(0, n - (now - t(p))).
inline int64_t TimeToLive(int64_t arrival, int64_t now, int64_t window_size) {
  int64_t ttl = window_size - (now - arrival);
  return ttl > 0 ? ttl : 0;
}
inline int64_t TimeToLive(const Point& p, int64_t now, int64_t window_size) {
  return TimeToLive(p.arrival, now, window_size);
}

/// True when a point that arrived at time `arrival` still belongs to the
/// window of size `window_size` at `now`.
inline bool IsActive(int64_t arrival, int64_t now, int64_t window_size) {
  return TimeToLive(arrival, now, window_size) > 0;
}
inline bool IsActive(const Point& p, int64_t now, int64_t window_size) {
  return IsActive(p.arrival, now, window_size);
}

}  // namespace fkc

#endif  // FKC_METRIC_POINT_H_
