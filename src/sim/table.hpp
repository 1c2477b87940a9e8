/**
 * @file
 * Small helper for printing aligned result tables from benches.
 */

#ifndef SMART_SIM_TABLE_HPP
#define SMART_SIM_TABLE_HPP

#include <algorithm>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

namespace smart::sim {

/** Collects rows of strings and prints them as an aligned text table. */
class Table
{
  public:
    explicit Table(std::vector<std::string> header)
        : header_(std::move(header))
    {
    }

    /** Start a new row. */
    Table &
    row()
    {
        rows_.emplace_back();
        return *this;
    }

    /** Append a string cell to the current row. */
    Table &
    cell(const std::string &s)
    {
        rows_.back().push_back(s);
        return *this;
    }

    /** Append a numeric cell with @p prec digits after the decimal point. */
    Table &
    cell(double v, int prec = 2)
    {
        std::ostringstream os;
        os << std::fixed << std::setprecision(prec) << v;
        rows_.back().push_back(os.str());
        return *this;
    }

    /** Append an integer cell. */
    Table &
    cell(std::uint64_t v)
    {
        rows_.back().push_back(std::to_string(v));
        return *this;
    }

    Table &cell(int v) { return cell(static_cast<std::uint64_t>(v)); }
    Table &cell(unsigned v) { return cell(static_cast<std::uint64_t>(v)); }

    /** Print the aligned table to @p os. */
    void
    print(std::ostream &os = std::cout) const
    {
        std::vector<std::size_t> width(header_.size(), 0);
        for (std::size_t c = 0; c < header_.size(); ++c)
            width[c] = header_[c].size();
        for (const auto &r : rows_)
            for (std::size_t c = 0; c < r.size() && c < width.size(); ++c)
                width[c] = std::max(width[c], r[c].size());

        auto emit = [&](const std::vector<std::string> &r) {
            for (std::size_t c = 0; c < width.size(); ++c) {
                std::string v = c < r.size() ? r[c] : "";
                os << std::left << std::setw(static_cast<int>(width[c]) + 2)
                   << v;
            }
            os << "\n";
        };
        emit(header_);
        std::string rule;
        for (std::size_t c = 0; c < width.size(); ++c)
            rule += std::string(width[c], '-') + "  ";
        os << rule << "\n";
        for (const auto &r : rows_)
            emit(r);
    }

    /** @return the header cells. */
    const std::vector<std::string> &header() const { return header_; }

    /** @return all rows (each a vector of cell strings). */
    const std::vector<std::vector<std::string>> &rows() const
    {
        return rows_;
    }

  private:
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

} // namespace smart::sim

#endif // SMART_SIM_TABLE_HPP
