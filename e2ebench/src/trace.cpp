#include "trace.hpp"

#include <algorithm>
#include <atomic>

namespace e2e {
namespace {

std::atomic<std::size_t> next_tracer_id{1};

}  // namespace

Tracer::Tracer() : epoch_(Clock::now()), id_(next_tracer_id++) {}

std::vector<Tracer::Span>& Tracer::buffer() {
  // One buffer per (thread, tracer); the id tells a stale thread-local
  // pointer from a previous tracer apart from the current one.
  thread_local std::size_t owner = 0;
  thread_local std::vector<Span>* mine = nullptr;
  if (owner != id_) {
    const std::lock_guard<std::mutex> lock(mutex_);
    buffers_.push_back(std::make_unique<std::vector<Span>>());
    mine = buffers_.back().get();
    owner = id_;
  }
  return *mine;
}

void Tracer::record(const char* name, double begin_ms, double end_ms) {
  buffer().push_back({name, {begin_ms, end_ms}});
}

std::map<std::string, Tracer::Totals> Tracer::summarize() const {
  std::map<std::string, Totals> out;
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& owned : buffers_) {
    std::vector<Span> spans = *owned;
    // Parents sort before the spans nested in them.
    std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
      return a.at.begin != b.at.begin ? a.at.begin < b.at.begin
                                      : a.at.end > b.at.end;
    });
    std::vector<Interval> children;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      children.clear();
      for (std::size_t j = i + 1;
           j < spans.size() && spans[j].at.begin <= spans[i].at.end; ++j) {
        if (spans[j].at.end <= spans[i].at.end) children.push_back(spans[j].at);
      }
      Totals& t = out[spans[i].name];
      t.total_ms += spans[i].at.end - spans[i].at.begin;
      t.self_ms += self_time(spans[i].at, children);
      ++t.count;
    }
  }
  return out;
}

}  // namespace e2e
