#include "spans.hpp"

#include <cstdio>

#include "util/check.hpp"
#include "util/json.hpp"

namespace perfbench {

SpanRecorder::Scope::~Scope() {
  if (recorder_ != nullptr) recorder_->Close(index_);
}

SpanRecorder::SpanRecorder(std::string workload, bool enabled)
    : workload_(std::move(workload)),
      enabled_(enabled),
      origin_(std::chrono::steady_clock::now()) {}

void SpanRecorder::set_enabled(bool enabled) {
  ETA_CHECK(open_.empty());
  enabled_ = enabled;
}

SpanRecorder::Scope SpanRecorder::Open(const char* name) {
  if (!enabled_) return Scope(nullptr, -1);
  const int32_t parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(Span{.name = name, .start_us = NowUs(), .end_us = 0, .parent = parent});
  const auto index = static_cast<int32_t>(spans_.size() - 1);
  open_.push_back(index);
  return Scope(this, index);
}

double SpanRecorder::NowUs() const {
  return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - origin_)
      .count();
}

void SpanRecorder::Close(int32_t index) {
  ETA_CHECK(!open_.empty() && open_.back() == index);
  spans_[static_cast<size_t>(index)].end_us = NowUs();
  open_.pop_back();
}

namespace {

std::vector<double> ChildUs(const std::vector<SpanRecorder::Span>& spans) {
  std::vector<double> child(spans.size(), 0.0);
  for (const SpanRecorder::Span& s : spans) {
    if (s.parent >= 0) child[static_cast<size_t>(s.parent)] += s.end_us - s.start_us;
  }
  return child;
}

}  // namespace

double SpanRecorder::SelfMs(const std::string& name) const {
  const std::vector<double> child = ChildUs(spans_);
  double us = 0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name) us += spans_[i].end_us - spans_[i].start_us - child[i];
  }
  return us / 1000.0;
}

uint64_t SpanRecorder::Count(const std::string& name) const {
  uint64_t n = 0;
  for (const Span& s : spans_) n += s.name == name ? 1 : 0;
  return n;
}

std::string SpanRecorder::ChromeTraceJson() const {
  const std::vector<double> child = ChildUs(spans_);
  std::string out = "{\"traceEvents\":[";
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
                "\"args\":{\"name\":\"perfbench %s (host clock)\"}}",
                eta::util::JsonEscape(workload_).c_str());
  out += buf;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double dur = s.end_us - s.start_us;
    out += ",{\"name\":\"" + eta::util::JsonEscape(s.name) + "\"";
    std::snprintf(buf, sizeof(buf),
                  ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                  "\"args\":{\"index\":%zu,\"parent\":%d,\"self_us\":%.3f}}",
                  s.start_us, dur, i, s.parent, dur - child[i]);
    out += buf;
  }
  out += "]}\n";
  return out;
}

}  // namespace perfbench
