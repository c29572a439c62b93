#include "faultlab/fault_file.hpp"

#include <cmath>
#include <cstdio>
#include <set>
#include <sstream>
#include <stdexcept>

namespace rubin::faultlab {

namespace {

[[noreturn]] void fail(std::size_t line_no, const std::string& what) {
  throw std::invalid_argument("fault file line " + std::to_string(line_no) +
                              ": " + what);
}

std::vector<std::string> tokenize(std::string_view line) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
    if (i >= line.size() || line[i] == '#') break;
    const std::size_t start = i;
    while (i < line.size() && line[i] != ' ' && line[i] != '\t' &&
           line[i] != '#') {
      ++i;
    }
    out.emplace_back(line.substr(start, i - start));
  }
  return out;
}

double parse_double(const std::string& tok, std::size_t line_no) {
  std::size_t pos = 0;
  double v = 0.0;
  try {
    v = std::stod(tok, &pos);
  } catch (const std::exception&) {
    fail(line_no, "expected a number, got '" + tok + "'");
  }
  if (pos != tok.size()) fail(line_no, "trailing junk in number '" + tok + "'");
  return v;
}

std::uint64_t parse_u64(const std::string& tok, std::size_t line_no) {
  if (!tok.empty() && tok[0] == '-') {
    fail(line_no, "expected a non-negative integer, got '" + tok + "'");
  }
  std::size_t pos = 0;
  unsigned long long v = 0;
  try {
    v = std::stoull(tok, &pos);
  } catch (const std::exception&) {
    fail(line_no, "expected an integer, got '" + tok + "'");
  }
  if (pos != tok.size()) {
    fail(line_no, "trailing junk in integer '" + tok + "'");
  }
  return static_cast<std::uint64_t>(v);
}

std::uint32_t parse_u32(const std::string& tok, std::size_t line_no) {
  const std::uint64_t v = parse_u64(tok, line_no);
  if (v > 0xFFFFFFFFull) fail(line_no, "integer out of range: '" + tok + "'");
  return static_cast<std::uint32_t>(v);
}

bool parse_bool(const std::string& tok, std::size_t line_no) {
  if (tok == "true" || tok == "1") return true;
  if (tok == "false" || tok == "0") return false;
  fail(line_no, "expected true/false, got '" + tok + "'");
}

double parse_rate(const std::string& tok, std::size_t line_no) {
  const double p = parse_double(tok, line_no);
  if (p < 0.0 || p > 1.0) {
    fail(line_no, "probability out of [0,1]: '" + tok + "'");
  }
  return p;
}

/// Milliseconds/microseconds to virtual time, rounded to the nearest
/// nanosecond so writer output (printed as a decimal) reparses exactly.
sim::Time ms_to_time(double ms, std::size_t line_no) {
  if (ms < 0.0) fail(line_no, "negative duration");
  return static_cast<sim::Time>(std::llround(ms * 1e6));
}

sim::Time us_to_time(double us, std::size_t line_no) {
  if (us < 0.0) fail(line_no, "negative duration");
  return static_cast<sim::Time>(std::llround(us * 1e3));
}

/// Prints a nanosecond duration as a decimal in `unit_ns` units with no
/// precision loss (ns resolution => at most 6 fractional digits for ms).
std::string time_to_str(sim::Time t, sim::Time unit_ns) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g",
                static_cast<double>(t) / static_cast<double>(unit_ns));
  return buf;
}

/// One action clause starting at tok[i]; advances i past the clause.
FaultAction parse_action(const std::vector<std::string>& tok, std::size_t& i,
                         std::size_t line_no) {
  const auto need = [&](std::size_t args, const char* verb) {
    if (i + args >= tok.size()) {
      fail(line_no, std::string("'") + verb + "' takes " +
                        std::to_string(args) + " argument(s)");
    }
  };
  const std::string verb = tok[i];
  if (verb == "crash") {
    need(1, "crash");
    FaultAction a = FaultAction::crash(parse_u32(tok[i + 1], line_no));
    i += 2;
    return a;
  }
  if (verb == "set_strategy") {
    need(2, "set_strategy");
    FaultAction a = FaultAction::set_strategy(parse_u32(tok[i + 1], line_no),
                                              tok[i + 2]);
    i += 3;
    return a;
  }
  if (verb == "drop_rate") {
    need(1, "drop_rate");
    FaultAction a = FaultAction::drop_rate(parse_rate(tok[i + 1], line_no));
    i += 2;
    return a;
  }
  if (verb == "corrupt_rate") {
    need(1, "corrupt_rate");
    FaultAction a = FaultAction::corrupt_rate(parse_rate(tok[i + 1], line_no));
    i += 2;
    return a;
  }
  if (verb == "duplicate_rate") {
    need(1, "duplicate_rate");
    FaultAction a =
        FaultAction::duplicate_rate(parse_rate(tok[i + 1], line_no));
    i += 2;
    return a;
  }
  if (verb == "reorder") {
    need(2, "reorder");
    FaultAction a = FaultAction::reorder(
        parse_rate(tok[i + 1], line_no),
        us_to_time(parse_double(tok[i + 2], line_no), line_no));
    i += 3;
    return a;
  }
  if (verb == "pair_drop") {
    need(3, "pair_drop");
    FaultAction a = FaultAction::pair_drop(parse_u32(tok[i + 1], line_no),
                                           parse_u32(tok[i + 2], line_no),
                                           parse_rate(tok[i + 3], line_no));
    i += 4;
    return a;
  }
  if (verb == "extra_delay") {
    need(3, "extra_delay");
    FaultAction a = FaultAction::extra_delay(
        parse_u32(tok[i + 1], line_no), parse_u32(tok[i + 2], line_no),
        us_to_time(parse_double(tok[i + 3], line_no), line_no));
    i += 4;
    return a;
  }
  if (verb == "oneway") {
    need(2, "oneway");
    FaultAction a = FaultAction::oneway(parse_u32(tok[i + 1], line_no),
                                        parse_u32(tok[i + 2], line_no));
    i += 3;
    return a;
  }
  if (verb == "isolate") {
    need(1, "isolate");
    FaultAction a = FaultAction::isolate(parse_u32(tok[i + 1], line_no));
    i += 2;
    return a;
  }
  if (verb == "heal") {
    i += 1;
    return FaultAction::heal();
  }
  if (verb == "nic_stall") {
    need(2, "nic_stall");
    FaultAction a = FaultAction::nic_stall(
        parse_u32(tok[i + 1], line_no),
        ms_to_time(parse_double(tok[i + 2], line_no), line_no));
    i += 3;
    return a;
  }
  if (verb == "qp_errors") {
    need(1, "qp_errors");
    FaultAction a = FaultAction::qp_errors(parse_u32(tok[i + 1], line_no));
    i += 2;
    return a;
  }
  fail(line_no, "unknown fault action '" + verb + "'");
}

/// Parses the clause list + optional trailing `clears` of an event line,
/// starting at tok[i].
void parse_event_tail(const std::vector<std::string>& tok, std::size_t i,
                      std::size_t line_no, FaultEvent& e) {
  if (i >= tok.size()) fail(line_no, "event without an action");
  while (i < tok.size()) {
    if (tok[i] == "clears") {
      if (i + 1 != tok.size()) fail(line_no, "'clears' must come last");
      e.clears_faults = true;
      return;
    }
    if (tok[i] == ";") {
      ++i;
      if (i >= tok.size()) fail(line_no, "dangling ';'");
      continue;
    }
    e.actions.push_back(parse_action(tok, i, line_no));
  }
}

struct PendingScenario {
  Scenario s;
  std::size_t header_line = 0;
  std::vector<std::size_t> event_lines;  // parallel to s.events
};

/// Shape-dependent checks, run at `end` when n/clients are final.
void validate(const PendingScenario& p) {
  const Scenario& s = p.s;
  if (s.n < 4) fail(p.header_line, "n must be >= 4 (3f+1 with f >= 1)");
  if (s.clients == 0) fail(p.header_line, "scenario needs >= 1 client");
  const std::uint32_t hosts = s.n + s.clients;
  const auto check_host = [&](std::uint32_t h, std::size_t ln) {
    if (h >= hosts) {
      fail(ln, "host id " + std::to_string(h) + " out of range (" +
                   std::to_string(hosts) + " hosts)");
    }
  };
  const auto check_replica = [&](std::uint32_t r, std::size_t ln) {
    if (r >= s.n) {
      fail(ln, "replica id " + std::to_string(r) + " out of range (n = " +
                   std::to_string(s.n) + ")");
    }
  };
  for (const auto& [id, name] : s.strategies) {
    check_replica(id, p.header_line);
    if (!reptor::make_strategy_by_name(name)) {
      fail(p.header_line, "unknown replica strategy '" + name + "'");
    }
  }
  for (const auto& [c, name] : s.client_strategies) {
    if (c >= s.clients) {
      fail(p.header_line, "client ordinal " + std::to_string(c) +
                              " out of range (clients = " +
                              std::to_string(s.clients) + ")");
    }
    if (!reptor::make_client_strategy_by_name(name)) {
      fail(p.header_line, "unknown client strategy '" + name + "'");
    }
  }
  for (const reptor::NodeId r : s.runtime_faulty) {
    check_replica(r, p.header_line);
  }
  for (std::size_t i = 0; i < s.events.size(); ++i) {
    const FaultEvent& e = s.events[i];
    const std::size_t ln = p.event_lines[i];
    if (e.at >= 0 && e.at >= s.horizon) {
      fail(ln, "event instant at/after the horizon (" +
                   time_to_str(e.at, sim::kMillisecond) + "ms >= " +
                   time_to_str(s.horizon, sim::kMillisecond) + "ms)");
    }
    for (const FaultAction& a : e.actions) {
      switch (a.kind) {
        case FaultAction::Kind::kSetStrategy:
          if (!reptor::make_strategy_by_name(a.name)) {
            fail(ln, "unknown replica strategy '" + a.name + "'");
          }
          [[fallthrough]];
        case FaultAction::Kind::kCrash:
          check_replica(a.a, ln);
          break;
        case FaultAction::Kind::kPairDrop:
        case FaultAction::Kind::kExtraDelay:
        case FaultAction::Kind::kOneway:
          check_host(a.a, ln);
          check_host(a.b, ln);
          if (a.a == a.b) fail(ln, "pair action needs two distinct hosts");
          break;
        case FaultAction::Kind::kIsolate:
        case FaultAction::Kind::kNicStall:
        case FaultAction::Kind::kQpErrors:
          check_host(a.a, ln);
          break;
        default:
          break;
      }
    }
  }
}

}  // namespace

std::vector<Scenario> parse_fault_text(std::string_view text) {
  std::vector<Scenario> out;
  std::set<std::string> names;
  PendingScenario pending;
  bool in_scenario = false;

  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t eol = text.find('\n', pos);
    const std::string_view line =
        text.substr(pos, eol == std::string_view::npos ? text.size() - pos
                                                       : eol - pos);
    pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;
    ++line_no;

    const std::vector<std::string> tok = tokenize(line);
    if (tok.empty()) continue;
    const std::string& kw = tok[0];

    if (!in_scenario) {
      if (kw != "scenario") {
        fail(line_no, "expected 'scenario <name>', got '" + kw + "'");
      }
      if (tok.size() != 2) fail(line_no, "'scenario' takes 1 argument");
      if (!names.insert(tok[1]).second) {
        fail(line_no, "duplicate scenario name '" + tok[1] + "'");
      }
      pending = PendingScenario{};
      pending.s.name = tok[1];
      pending.header_line = line_no;
      in_scenario = true;
      continue;
    }

    const auto scalar = [&](auto setter) {
      if (tok.size() != 2) {
        fail(line_no, "'" + kw + "' takes 1 argument");
      }
      setter(tok[1]);
    };

    Scenario& s = pending.s;
    if (kw == "end") {
      if (tok.size() != 1) fail(line_no, "'end' takes no arguments");
      validate(pending);
      out.push_back(std::move(pending.s));
      in_scenario = false;
    } else if (kw == "describe") {
      std::string d;
      for (std::size_t i = 1; i < tok.size(); ++i) {
        if (i > 1) d += ' ';
        d += tok[i];
      }
      s.description = std::move(d);
    } else if (kw == "n") {
      scalar([&](const std::string& v) { s.n = parse_u32(v, line_no); });
    } else if (kw == "clients") {
      scalar([&](const std::string& v) { s.clients = parse_u32(v, line_no); });
    } else if (kw == "requests") {
      scalar([&](const std::string& v) { s.requests = parse_u32(v, line_no); });
    } else if (kw == "gap_us") {
      scalar([&](const std::string& v) {
        s.request_gap = us_to_time(parse_double(v, line_no), line_no);
      });
    } else if (kw == "seed") {
      scalar([&](const std::string& v) { s.seed = parse_u64(v, line_no); });
    } else if (kw == "horizon_ms") {
      scalar([&](const std::string& v) {
        s.horizon = ms_to_time(parse_double(v, line_no), line_no);
      });
    } else if (kw == "liveness_bound_ms") {
      scalar([&](const std::string& v) {
        s.liveness_bound = ms_to_time(parse_double(v, line_no), line_no);
      });
    } else if (kw == "expect_liveness") {
      scalar([&](const std::string& v) {
        s.expect_liveness = parse_bool(v, line_no);
      });
    } else if (kw == "one_sided") {
      scalar([&](const std::string& v) {
        s.one_sided = parse_bool(v, line_no);
      });
    } else if (kw == "pipelines") {
      scalar([&](const std::string& v) {
        s.replica_cfg.pipelines = parse_u32(v, line_no);
      });
    } else if (kw == "batch_timeout_us") {
      scalar([&](const std::string& v) {
        s.replica_cfg.batch_timeout =
            us_to_time(parse_double(v, line_no), line_no);
      });
    } else if (kw == "checkpoint_interval") {
      scalar([&](const std::string& v) {
        s.replica_cfg.checkpoint_interval = parse_u64(v, line_no);
      });
    } else if (kw == "view_change_timeout_ms") {
      scalar([&](const std::string& v) {
        s.replica_cfg.view_change_timeout =
            ms_to_time(parse_double(v, line_no), line_no);
      });
    } else if (kw == "retry_timeout_ms") {
      scalar([&](const std::string& v) {
        s.client_cfg.retry_timeout =
            ms_to_time(parse_double(v, line_no), line_no);
      });
    } else if (kw == "strategy") {
      if (tok.size() != 3) fail(line_no, "'strategy' takes 2 arguments");
      s.strategies[static_cast<reptor::NodeId>(parse_u32(tok[1], line_no))] =
          tok[2];
    } else if (kw == "client_strategy") {
      if (tok.size() != 3) {
        fail(line_no, "'client_strategy' takes 2 arguments");
      }
      s.client_strategies[parse_u32(tok[1], line_no)] = tok[2];
    } else if (kw == "runtime_faulty") {
      scalar([&](const std::string& v) {
        s.runtime_faulty.insert(
            static_cast<reptor::NodeId>(parse_u32(v, line_no)));
      });
    } else if (kw == "at_ms") {
      if (tok.size() < 2) fail(line_no, "'at_ms' needs an instant");
      FaultEvent e;
      e.at = ms_to_time(parse_double(tok[1], line_no), line_no);
      parse_event_tail(tok, 2, line_no, e);
      e.label = "at " + tok[1] + "ms (line " + std::to_string(line_no) + ")";
      pending.event_lines.push_back(line_no);
      s.events.push_back(std::move(e));
    } else if (kw == "after") {
      if (tok.size() < 2) fail(line_no, "'after' needs a completion count");
      FaultEvent e;
      e.after_completions = parse_u64(tok[1], line_no);
      if (e.after_completions == 0) {
        fail(line_no, "'after' needs a count >= 1");
      }
      parse_event_tail(tok, 2, line_no, e);
      e.label = "after " + tok[1] + " completions (line " +
                std::to_string(line_no) + ")";
      pending.event_lines.push_back(line_no);
      s.events.push_back(std::move(e));
    } else {
      fail(line_no, "unknown directive '" + kw + "'");
    }
  }

  if (in_scenario) {
    fail(line_no, "unterminated scenario '" + pending.s.name + "'");
  }
  if (out.empty()) fail(line_no, "file declares no scenarios");
  return out;
}

std::vector<Scenario> load_fault_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    throw std::invalid_argument("cannot open fault file: " + path);
  }
  std::string text;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);
  return parse_fault_text(text);
}

namespace {

void write_action(std::ostringstream& os, const FaultAction& a) {
  switch (a.kind) {
    case FaultAction::Kind::kCrash:
      os << "crash " << a.a;
      return;
    case FaultAction::Kind::kSetStrategy:
      os << "set_strategy " << a.a << ' ' << a.name;
      return;
    case FaultAction::Kind::kDropRate:
      os << "drop_rate " << a.rate;
      return;
    case FaultAction::Kind::kCorruptRate:
      os << "corrupt_rate " << a.rate;
      return;
    case FaultAction::Kind::kDuplicateRate:
      os << "duplicate_rate " << a.rate;
      return;
    case FaultAction::Kind::kReorder:
      os << "reorder " << a.rate << ' ' << time_to_str(a.t, sim::kMicrosecond);
      return;
    case FaultAction::Kind::kPairDrop:
      os << "pair_drop " << a.a << ' ' << a.b << ' ' << a.rate;
      return;
    case FaultAction::Kind::kExtraDelay:
      os << "extra_delay " << a.a << ' ' << a.b << ' '
         << time_to_str(a.t, sim::kMicrosecond);
      return;
    case FaultAction::Kind::kOneway:
      os << "oneway " << a.a << ' ' << a.b;
      return;
    case FaultAction::Kind::kIsolate:
      os << "isolate " << a.a;
      return;
    case FaultAction::Kind::kHeal:
      os << "heal";
      return;
    case FaultAction::Kind::kNicStall:
      os << "nic_stall " << a.a << ' ' << time_to_str(a.t, sim::kMillisecond);
      return;
    case FaultAction::Kind::kQpErrors:
      os << "qp_errors " << a.a;
      return;
  }
}

}  // namespace

std::string to_fault_text(const Scenario& s) {
  if (!s.serializable()) {
    throw std::invalid_argument("scenario '" + s.name +
                                "' has closure events; not serializable");
  }
  std::ostringstream os;
  os.precision(17);  // rates round-trip exactly
  os << "scenario " << s.name << '\n';
  if (!s.description.empty()) os << "  describe " << s.description << '\n';
  os << "  n " << s.n << '\n';
  os << "  clients " << s.clients << '\n';
  os << "  requests " << s.requests << '\n';
  os << "  gap_us " << time_to_str(s.request_gap, sim::kMicrosecond) << '\n';
  os << "  seed " << s.seed << '\n';
  os << "  horizon_ms " << time_to_str(s.horizon, sim::kMillisecond) << '\n';
  os << "  liveness_bound_ms "
     << time_to_str(s.liveness_bound, sim::kMillisecond) << '\n';
  os << "  expect_liveness " << (s.expect_liveness ? "true" : "false")
     << '\n';
  if (s.one_sided) os << "  one_sided true\n";
  if (s.replica_cfg.pipelines != 1) {
    os << "  pipelines " << s.replica_cfg.pipelines << '\n';
  }
  os << "  batch_timeout_us "
     << time_to_str(s.replica_cfg.batch_timeout, sim::kMicrosecond) << '\n';
  os << "  checkpoint_interval " << s.replica_cfg.checkpoint_interval << '\n';
  os << "  view_change_timeout_ms "
     << time_to_str(s.replica_cfg.view_change_timeout, sim::kMillisecond)
     << '\n';
  os << "  retry_timeout_ms "
     << time_to_str(s.client_cfg.retry_timeout, sim::kMillisecond) << '\n';
  for (const auto& [id, name] : s.strategies) {
    os << "  strategy " << id << ' ' << name << '\n';
  }
  for (const auto& [c, name] : s.client_strategies) {
    os << "  client_strategy " << c << ' ' << name << '\n';
  }
  for (const reptor::NodeId r : s.runtime_faulty) {
    os << "  runtime_faulty " << r << '\n';
  }
  for (const FaultEvent& e : s.events) {
    if (e.at >= 0) {
      os << "  at_ms " << time_to_str(e.at, sim::kMillisecond);
    } else {
      os << "  after " << e.after_completions;
    }
    for (std::size_t i = 0; i < e.actions.size(); ++i) {
      os << (i == 0 ? " " : " ; ");
      write_action(os, e.actions[i]);
    }
    if (e.clears_faults) os << " clears";
    os << '\n';
  }
  os << "end\n";
  return os.str();
}

std::string to_fault_text(const std::vector<Scenario>& scenarios) {
  std::string out;
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    if (i > 0) out += '\n';
    out += to_fault_text(scenarios[i]);
  }
  return out;
}

}  // namespace rubin::faultlab
