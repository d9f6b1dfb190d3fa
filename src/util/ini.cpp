#include "util/ini.hpp"

#include <sstream>

namespace emask::util {
namespace {

bool is_space(char c) { return c == ' ' || c == '\t' || c == '\r'; }

/// Removes a trailing `#`/`;` comment that follows whitespace; text inside
/// double quotes is left alone.
std::string strip_trailing_comment(const std::string& line) {
  bool in_quotes = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (c == '"') in_quotes = !in_quotes;
    if (!in_quotes && (c == '#' || c == ';') &&
        (i == 0 || is_space(line[i - 1]))) {
      return line.substr(0, i);
    }
  }
  return line;
}

}  // namespace

std::string IniFile::trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && is_space(s[b])) ++b;
  while (e > b && is_space(s[e - 1])) --e;
  return s.substr(b, e - b);
}

std::vector<std::string> IniFile::split_list(const std::string& value) {
  std::vector<std::string> items;
  std::string current;
  for (const char c : value) {
    if (c == ',') {
      items.push_back(trim(current));
      current.clear();
    } else {
      current += c;
    }
  }
  items.push_back(trim(current));
  return items;
}

const IniFile::Entry* IniFile::Section::find(const std::string& key) const {
  for (const Entry& e : entries) {
    if (e.key == key) return &e;
  }
  return nullptr;
}

const IniFile::Section* IniFile::find_section(const std::string& name) const {
  for (const Section& s : sections_) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

const std::string* IniFile::find(const std::string& section,
                                 const std::string& key) const {
  const Section* s = find_section(section);
  if (s == nullptr) return nullptr;
  const Entry* e = s->find(key);
  return e ? &e->value : nullptr;
}

std::string IniFile::get_or(const std::string& section, const std::string& key,
                            const std::string& fallback) const {
  const std::string* v = find(section, key);
  return v ? *v : fallback;
}

IniFile IniFile::parse(const std::string& text) {
  IniFile file;
  std::istringstream in(text);
  std::string raw;
  int line_no = 0;
  Section* current = nullptr;
  while (std::getline(in, raw)) {
    ++line_no;
    std::string line = trim(strip_trailing_comment(raw));
    if (line.empty() || line[0] == '#' || line[0] == ';') continue;

    if (line.front() == '[') {
      if (line.back() != ']') {
        throw IniError(line_no, "unterminated section header: " + line);
      }
      const std::string name = trim(line.substr(1, line.size() - 2));
      if (name.empty()) throw IniError(line_no, "empty section name");
      if (file.find_section(name) != nullptr) {
        throw IniError(line_no, "duplicate section [" + name + "]");
      }
      file.sections_.push_back({name, {}, line_no});
      current = &file.sections_.back();
      continue;
    }

    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) {
      throw IniError(line_no, "expected 'key = value': " + line);
    }
    if (current == nullptr) {
      throw IniError(line_no, "key outside of any [section]: " + line);
    }
    const std::string key = trim(line.substr(0, eq));
    std::string value = trim(line.substr(eq + 1));
    if (key.empty()) throw IniError(line_no, "empty key: " + line);
    if (value.size() >= 2 && value.front() == '"' && value.back() == '"') {
      value = value.substr(1, value.size() - 2);
    }
    if (current->find(key) != nullptr) {
      throw IniError(line_no, "duplicate key '" + key + "' in [" +
                                  current->name + "]");
    }
    current->entries.push_back({key, value, line_no});
  }
  return file;
}

}  // namespace emask::util
