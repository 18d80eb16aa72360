#include "spans.h"

#include <algorithm>
#include <utility>

namespace cpbench {

std::uint32_t SpanRecorder::intern(std::string_view name) {
  for (std::uint32_t i = 0; i < names_.size(); ++i)
    if (names_[i] == name) return i;
  names_.emplace_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::uint32_t SpanRecorder::open(std::uint32_t name, std::uint64_t op) {
  const std::uint32_t parent = open_.empty() ? kNoParent : open_.back();
  const std::uint32_t index = add(name, parent, now_ns(), 0, op);
  open_.push_back(index);
  return index;
}

void SpanRecorder::close(std::uint32_t index) {
  spans_[index].end_ns = now_ns();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

std::uint32_t SpanRecorder::add(std::uint32_t name, std::uint32_t parent, std::int64_t start_ns,
                                std::int64_t end_ns, std::uint64_t op) {
  spans_.push_back(Span{name, parent, start_ns, end_ns, op});
  return static_cast<std::uint32_t>(spans_.size() - 1);
}

std::vector<double> SpanRecorder::self_ns() const {
  // Children grouped by parent, then per parent the union of their
  // intervals clipped to the parent's interval.
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(spans_.size());
  for (const Span& s : spans_)
    if (s.parent != kNoParent) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t reach = s.start_ns;  // end of the union so far
    for (auto [begin, end] : kids) {
      begin = std::max(begin, reach);
      end = std::min(end, s.end_ns);
      if (end > begin) {
        covered += end - begin;
        reach = end;
      }
    }
    self[i] = static_cast<double>(s.end_ns - s.start_ns - covered);
  }
  return self;
}

std::map<std::string, SpanTotals> SpanRecorder::totals() const {
  std::map<std::string, SpanTotals> out;
  const std::vector<double> self = self_ns();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    SpanTotals& t = out[names_[spans_[i].name]];
    ++t.count;
    t.total_ns += static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
    t.self_ns += self[i];
  }
  return out;
}

std::vector<double> SpanRecorder::durations(std::string_view name) const {
  std::vector<double> out;
  for (const Span& s : spans_)
    if (names_[s.name] == name) out.push_back(static_cast<double>(s.end_ns - s.start_ns));
  return out;
}

void SpanRecorder::write_csv(std::ostream& out) const {
  out << "name,start_ns,end_ns,parent,op\n";
  for (const Span& s : spans_) {
    out << names_[s.name] << ',' << s.start_ns << ',' << s.end_ns << ','
        << (s.parent == kNoParent ? std::int64_t{-1} : std::int64_t{s.parent}) << ',' << s.op
        << '\n';
  }
}

}  // namespace cpbench
