module wavescalar/bench/ledger

go 1.22

require wavescalar v0.0.0

replace wavescalar => ../..
