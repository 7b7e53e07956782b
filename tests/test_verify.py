from indcert import certificates, verify


def test_oracle_budget_stop_is_reported_as_skipped():
    cert = certificates.builtin_certificate("c33")
    assert verify.oracle_validate_certificate(cert) == (True, False, "")
    assert verify.oracle_validate_certificate(cert, budget=10) == (
        True, True, "stopped at step 0: face budget",
    )
    rows = {r.case_id: r for r in verify.builtin_oracle_suite(budget=10)}
    row = rows["oracle c33"]
    assert row.passed and row.betti_skipped
    assert row.detail == "stopped at step 0: face budget"
    assert "betti=skipped" in row.line()
