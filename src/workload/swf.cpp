#include "workload/swf.hpp"

#include <charconv>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

#include "support/check.hpp"

namespace librisk::workload::swf {

namespace {

// SWF field indices (0-based) per the Parallel Workloads Archive definition.
enum Field : int {
  kJobNumber = 0,
  kSubmitTime = 1,
  kWaitTime = 2,
  kRunTime = 3,
  kUsedProcs = 4,
  kUsedCpuTime = 5,
  kUsedMemory = 6,
  kReqProcs = 7,
  kReqTime = 8,
  kReqMemory = 9,
  kStatus = 10,
  kUserId = 11,
  kGroupId = 12,
  kExecutable = 13,
  kQueue = 14,
  kPartition = 15,
  kPrecedingJob = 16,
  kThinkTime = 17,
};
constexpr int kFieldCount = 18;

double parse_number(std::string_view token, int line_no) {
  try {
    std::size_t pos = 0;
    const std::string s(token);
    const double v = std::stod(s, &pos);
    if (pos != s.size()) throw std::invalid_argument(s);
    return v;
  } catch (const std::exception&) {
    std::ostringstream os;
    os << "SWF line " << line_no << ": bad numeric field '" << token << "'";
    throw ParseError(os.str());
  }
}

// Parses the librisk comment extension:
//   ;librisk-deadline: <job-id> <deadline-seconds> <high|low|unspecified>
bool parse_deadline_note(std::string_view line, std::int64_t& id,
                         double& deadline, Urgency& urgency) {
  constexpr std::string_view prefix = ";librisk-deadline:";
  if (line.rfind(prefix, 0) != 0) return false;
  std::istringstream is{std::string(line.substr(prefix.size()))};
  std::string word;
  if (!(is >> id >> deadline >> word)) return false;
  if (word == "high") urgency = Urgency::High;
  else if (word == "low") urgency = Urgency::Low;
  else urgency = Urgency::Unspecified;
  return true;
}

// Strips the trailing CR of CRLF traces and leading whitespace.
std::string_view trimmed_view(std::string& line) {
  if (!line.empty() && line.back() == '\r') line.pop_back();
  std::string_view view = line;
  while (!view.empty() && (view.front() == ' ' || view.front() == '\t'))
    view.remove_prefix(1);
  return view;
}

void tokenize(std::string_view view, std::vector<std::string_view>& tokens) {
  tokens.clear();
  std::size_t pos = 0;
  while (pos < view.size()) {
    while (pos < view.size() && (view[pos] == ' ' || view[pos] == '\t')) ++pos;
    const std::size_t start = pos;
    while (pos < view.size() && view[pos] != ' ' && view[pos] != '\t') ++pos;
    if (pos > start) tokens.push_back(view.substr(start, pos - start));
  }
}

// Maps one tokenized data line onto the Job fields librisk uses. Throws
// ParseError on a short (truncated) line or a non-numeric field.
Job parse_job_fields(const std::vector<std::string_view>& tokens, int line_no) {
  if (static_cast<int>(tokens.size()) < kFieldCount) {
    std::ostringstream os;
    os << "SWF line " << line_no << ": expected " << kFieldCount
       << " whitespace-separated fields, got " << tokens.size()
       << " — truncated line or not an SWF trace?";
    throw ParseError(os.str());
  }
  Job job;
  job.id = static_cast<std::int64_t>(parse_number(tokens[kJobNumber], line_no));
  job.submit_time = parse_number(tokens[kSubmitTime], line_no);
  job.actual_runtime = parse_number(tokens[kRunTime], line_no);
  double procs = parse_number(tokens[kReqProcs], line_no);
  if (procs <= 0) procs = parse_number(tokens[kUsedProcs], line_no);
  job.num_procs = static_cast<int>(procs);
  job.user_estimate = parse_number(tokens[kReqTime], line_no);
  job.status = static_cast<int>(parse_number(tokens[kStatus], line_no));
  job.user_id = static_cast<int>(parse_number(tokens[kUserId], line_no));
  job.group_id = static_cast<int>(parse_number(tokens[kGroupId], line_no));
  job.queue = static_cast<int>(parse_number(tokens[kQueue], line_no));
  return job;
}

// Applies the archive's cleaning rules; returns false when the job should
// be dropped. Sets scheduler_estimate on kept jobs.
bool clean_job(Job& job, bool estimate_fallback_to_runtime) {
  if (job.user_estimate <= 0.0) {
    if (!estimate_fallback_to_runtime || job.actual_runtime <= 0.0)
      return false;
    job.user_estimate = job.actual_runtime;
  }
  if (job.actual_runtime <= 0.0 || job.num_procs <= 0) return false;
  job.scheduler_estimate = job.user_estimate;
  return true;
}

}  // namespace

std::vector<Job> read(std::istream& in, const ReadOptions& opts) {
  std::vector<Job> jobs;
  std::map<std::int64_t, std::pair<double, Urgency>> deadline_notes;
  std::string line;
  int line_no = 0;
  std::vector<std::string_view> tokens;

  while (std::getline(in, line)) {
    ++line_no;
    const std::string_view view = trimmed_view(line);
    if (view.empty()) continue;
    if (view.front() == ';') {
      std::int64_t id = 0;
      double deadline = 0.0;
      Urgency urgency = Urgency::Unspecified;
      if (parse_deadline_note(view, id, deadline, urgency))
        deadline_notes[id] = {deadline, urgency};
      continue;
    }

    tokenize(view, tokens);
    if (tokens.empty()) continue;
    Job job = parse_job_fields(tokens, line_no);
    if (!clean_job(job, opts.estimate_fallback_to_runtime)) continue;
    jobs.push_back(job);
  }

  // Attach deadline notes.
  for (Job& j : jobs) {
    const auto it = deadline_notes.find(j.id);
    if (it != deadline_notes.end()) {
      j.deadline = it->second.first;
      j.urgency = it->second.second;
    }
  }

  sort_by_submit(jobs);
  if (opts.last_n != 0 && jobs.size() > opts.last_n)
    jobs.erase(jobs.begin(), jobs.end() - static_cast<std::ptrdiff_t>(opts.last_n));

  // Rebase submit times so the subset starts at t = 0.
  if (!jobs.empty()) {
    const SimTime base = jobs.front().submit_time;
    for (Job& j : jobs) j.submit_time -= base;
  }
  return jobs;
}

std::vector<Job> read_file(const std::string& path, const ReadOptions& opts) {
  std::ifstream in(path);
  if (!in) throw ParseError("cannot open SWF file: " + path);
  return read(in, opts);
}

SwfStream::SwfStream(std::istream& in, const StreamOptions& opts)
    : in_(&in), opts_(opts) {}

SwfStream::SwfStream(const std::string& path, const StreamOptions& opts)
    : owned_(std::make_unique<std::ifstream>(path)), in_(owned_.get()),
      opts_(opts) {
  if (!*in_) throw ParseError("cannot open SWF file: " + path);
}

SwfStream::~SwfStream() = default;

bool SwfStream::next(Job& job) {
  while (std::getline(*in_, line_)) {
    ++line_no_;
    const std::string_view view = trimmed_view(line_);
    if (view.empty()) continue;
    if (view.front() == ';') {
      std::int64_t id = 0;
      Note note;
      if (parse_deadline_note(view, id, note.deadline, note.urgency))
        notes_[id] = note;
      continue;
    }

    tokenize(view, tokens_);
    if (tokens_.empty()) continue;
    Job parsed = parse_job_fields(tokens_, line_no_);
    if (!clean_job(parsed, opts_.estimate_fallback_to_runtime)) {
      ++skipped_;
      continue;
    }
    if (opts_.require_monotone && returned_ > 0 &&
        parsed.submit_time < last_raw_submit_) {
      // Name both offenders fully — job id, submit time and line for each
      // side of the inversion — so a bad trace can be fixed without a
      // second pass to find the earlier half of the pair.
      std::ostringstream os;
      os << "SWF line " << line_no_ << ": job " << parsed.id
         << " submitted at " << parsed.submit_time << ", before job "
         << last_id_ << " (line " << last_line_ << ") submitted at "
         << last_raw_submit_
         << " — streaming replay needs a submit-ordered trace; sort it first"
            " (the batch reader swf::read() sorts) or set"
            " StreamOptions::require_monotone = false";
      throw ParseError(os.str());
    }
    last_raw_submit_ = parsed.submit_time;
    last_id_ = parsed.id;
    last_line_ = line_no_;

    const auto it = notes_.find(parsed.id);
    if (it != notes_.end()) {
      parsed.deadline = it->second.deadline;
      parsed.urgency = it->second.urgency;
      notes_.erase(it);
    }
    if (returned_ == 0) base_ = parsed.submit_time;
    parsed.submit_time -= base_;
    ++returned_;
    job = parsed;
    return true;
  }
  return false;
}

void write(std::ostream& out, const std::vector<Job>& jobs, const WriteOptions& opts) {
  for (const auto& line : opts.header) out << "; " << line << '\n';
  out << "; MaxJobs: " << jobs.size() << '\n';
  char buf[256];
  for (const Job& j : jobs) {
    // The note precedes its job line so a streaming reader holds at most
    // one unmatched note at a time.
    if (opts.include_deadlines && j.deadline > 0.0)
      out << ";librisk-deadline: " << j.id << ' ' << j.deadline << ' '
          << to_string(j.urgency) << '\n';
    std::snprintf(buf, sizeof buf,
                  "%lld %.0f -1 %.0f %d -1 -1 %d %.0f -1 %d %d %d -1 %d -1 -1 -1\n",
                  static_cast<long long>(j.id), j.submit_time, j.actual_runtime,
                  j.num_procs, j.num_procs, j.user_estimate, j.status, j.user_id,
                  j.group_id, j.queue);
    out << buf;
  }
}

void write_file(const std::string& path, const std::vector<Job>& jobs,
                const WriteOptions& opts) {
  std::ofstream out(path);
  LIBRISK_CHECK(static_cast<bool>(out), "cannot open for writing: " << path);
  write(out, jobs, opts);
  out.flush();
  LIBRISK_CHECK(static_cast<bool>(out), "write failed: " << path);
}

}  // namespace librisk::workload::swf
