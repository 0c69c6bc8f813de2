#include "src/journal/journal.hpp"

#include <ostream>
#include <stdexcept>
#include <utility>

#include "src/metrics/scoped_timer.hpp"

namespace rds::journal {

// ---- JournalWriter ---------------------------------------------------------

JournalWriter::JournalWriter(std::ostream& out, Options options)
    : out_(&out),
      next_lsn_(options.start_lsn == 0 ? 1 : options.start_lsn),
      sync_hook_(std::move(options.sync_hook)) {
  init_metrics();
  const MutexLock lock(mu_);
  if (options.write_header) write_header_locked();
}

void JournalWriter::init_metrics() {
  metrics::Registry& reg = metrics::Registry::global();
  records_total_ = &reg.counter("rds_journal_records_total");
  bytes_total_ = &reg.counter("rds_journal_bytes_total");
  append_failures_total_ = &reg.counter("rds_journal_append_failures_total");
  append_latency_ns_ = &reg.histogram("rds_journal_append_latency_ns");
}

void JournalWriter::write_header_locked() {
  codec::write_header(*out_, kJournalMagic, next_lsn_);
  out_->flush();
  if (!*out_) {
    healthy_ = false;
    throw std::runtime_error("JournalWriter: header write failed");
  }
}

Result<Lsn> JournalWriter::append(const Record& record) {
  metrics::ScopedTimer span(*append_latency_ns_);
  const MutexLock lock(mu_);
  if (!healthy_) {
    span.cancel();
    append_failures_total_->inc();
    return Error{ErrorCode::kIoError,
                 "JournalWriter: journal stream failed earlier; appends "
                 "are disabled until rotate()"};
  }
  Record framed = record;
  framed.lsn = next_lsn_;
  const Bytes payload = encode_record(framed);
  if (payload.size() > kMaxRecordBytes) {
    span.cancel();
    append_failures_total_->inc();
    return Error{ErrorCode::kInvalidArgument,
                 "JournalWriter: record of " + std::to_string(payload.size()) +
                     " bytes exceeds kMaxRecordBytes"};
  }
  codec::write_frame(*out_, payload);
  out_->flush();
  if (!*out_) {
    healthy_ = false;
    span.cancel();
    append_failures_total_->inc();
    return Error{ErrorCode::kIoError,
                 "JournalWriter: stream write failed at lsn " +
                     std::to_string(next_lsn_)};
  }
  if (sync_hook_) sync_hook_();
  records_total_->inc();
  bytes_total_->inc(8 + payload.size());
  return next_lsn_++;
}

Lsn JournalWriter::last_lsn() const {
  const MutexLock lock(mu_);
  return next_lsn_ - 1;
}

bool JournalWriter::healthy() const {
  const MutexLock lock(mu_);
  return healthy_;
}

void JournalWriter::rotate(std::ostream& fresh) {
  const MutexLock lock(mu_);
  out_ = &fresh;
  healthy_ = true;
  write_header_locked();
}

// ---- JournalReader ---------------------------------------------------------

Result<std::optional<Record>> JournalReader::fail(std::string message) {
  failed_ = Error{ErrorCode::kCorruption, std::move(message)};
  return *failed_;
}

Result<std::optional<Record>> JournalReader::next() {
  if (failed_) return *failed_;  // frame boundaries are untrustworthy now
  if (done_) return std::optional<Record>{};

  if (!header_read_) {
    Result<std::uint64_t> start =
        codec::read_header(*in_, kJournalMagic, "start-LSN");
    if (!start.ok()) return fail("journal header: " + start.error().message);
    start_lsn_ = start.value();
    expect_ = start_lsn_;
    header_read_ = true;
  }

  const std::string frame = "record lsn=" + std::to_string(expect_);
  Bytes payload;
  Result<bool> read = codec::read_frame(*in_, payload);
  if (!read.ok()) return fail(frame + ": " + read.error().message);
  if (!read.value()) {
    done_ = true;  // clean end: the previous frame was the last one
    return std::optional<Record>{};
  }
  Result<Record> record = decode_record(payload);
  if (!record.ok()) {
    return fail(frame + ": " + record.error().message);
  }
  if (record.value().lsn != expect_) {
    return fail(frame + ": LSN discontinuity (frame carries lsn=" +
                std::to_string(record.value().lsn) + ")");
  }
  ++expect_;
  return std::optional<Record>{std::move(record).take()};
}

}  // namespace rds::journal
