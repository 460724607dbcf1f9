# Distinct DOUBLE literals that render alike shared one constant register:
# MalProgram::Const hash-consed on the %.6g rendering, so 1.0000001 and
# 1.0000002 both became the constant 1 and the conjunction below returned
# no rows while each predicate alone returned the row. Constants now key on
# their exact value (DOUBLEs by bit pattern).

statement ok
CREATE TABLE t (b DOUBLE)

statement ok
INSERT INTO t VALUES (1.00000015)

query
SELECT COUNT(*) AS c0 FROM t WHERE b > 1.0000001 AND b < 1.0000002
----
1

query
SELECT b AS c0 FROM t WHERE b > 1.0000001 AND b < 1.0000002
----
1
