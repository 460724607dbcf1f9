# Found by the fuzzer (seed 5): a CASE whose condition folds to a scalar
# returned the chosen arm as it was, so a scalar arm beside a column arm
# gave a scalar select item. ORDER BY on it failed with "algebra.orderidx:
# argument 0 is not a BAT" (unfused plan), and with LIMIT in
# algebra.firstn (fused plan). A scalar condition with a BAT arm now
# broadcasts the chosen arm to that BAT's length, typed as the arms are
# under a row-varying condition.

statement ok
CREATE TABLE t1 (k INT, a INT, d DOUBLE)

statement ok
INSERT INTO t1 VALUES (3, 1, 1.5), (1, 2, NULL), (2, 0, -2.5)

query
SELECT CASE WHEN 1 = 1 THEN 5 ELSE k END AS c0, a FROM t1 ORDER BY c0, a
----
5|0
5|1
5|2

query
SELECT CASE WHEN 1 = 1 THEN 5 ELSE k END AS c0, a FROM t1 ORDER BY c0, a LIMIT 2
----
5|0
5|1

# The chosen arm is the column: its rows, unchanged.
query
SELECT CASE WHEN 1 = 2 THEN 5 ELSE k END AS c0, a FROM t1 ORDER BY c0 DESC, a LIMIT 2
----
3|1
2|0

# A NULL condition selects ELSE, as it does row by row.
query
SELECT CASE WHEN NULL = 1 THEN k ELSE 7 END AS c0, a FROM t1 ORDER BY c0, a
----
7|0
7|1
7|2

# Arms of different types take the common type of the arms: the INT 5
# becomes a DOUBLE, so dividing by 2 keeps the half.
query
SELECT CASE WHEN 2 > 1 THEN 5 ELSE d END / 2 AS c0, a FROM t1 ORDER BY c0, a LIMIT 2
----
2.5|0
2.5|1

# The fuzzer's original query.
query
SELECT CASE WHEN 16 = 12.5 THEN (-k) ELSE ABS(188) END AS c0, 17 AS c1, a AS c2 FROM t1 ORDER BY c0, c1 DESC, c2 DESC LIMIT 8
----
188|17|2
188|17|1
188|17|0
